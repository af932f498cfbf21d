#include "driver/experiment.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <memory>
#include <unordered_set>

#include "fault/faulty_network.h"
#include "hash/carp.h"
#include "link/transfer_scheduler.h"
#include "hash/consistent_hash.h"
#include "hash/rendezvous.h"
#include "proxy/coordinator.h"
#include "proxy/hashing_proxy.h"
#include "proxy/hierarchical_proxy.h"
#include "proxy/origin_server.h"
#include "proxy/soap_proxy.h"
#include "sim/simulator.h"
#include "util/flat_index.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace adc::driver {
namespace {

std::string proxy_name(int index) { return "proxy[" + std::to_string(index) + "]"; }

std::size_t baseline_capacity(const ExperimentConfig& config) {
  return config.baseline_cache_capacity != 0 ? config.baseline_cache_capacity
                                             : config.adc.caching_table_size;
}

/// True for the schemes whose proxies can run under a MemberAgent wrapper
/// (the others have a topology fixed by construction — a hierarchy root or
/// a central coordinator — that live membership cannot rewire).
bool membership_supported(Scheme scheme) noexcept {
  return scheme == Scheme::kAdc || scheme == Scheme::kCarp ||
         scheme == Scheme::kConsistent || scheme == Scheme::kRendezvous;
}

// Cold-restarts a proxy node: its cache and learned tables are wiped,
// connectivity survives.  Shared by the milestone-triggered FaultSpec and
// the time-triggered crash windows of a FaultPlan.
void flush_proxy(sim::Simulator& sim, NodeId victim, Scheme scheme, bool wrapped) {
  sim::Node& registered = sim.node(victim);
  sim::Node& node =
      wrapped ? static_cast<membership::MemberAgent&>(registered).inner() : registered;
  switch (scheme) {
    case Scheme::kAdc:
      static_cast<core::AdcProxy&>(node).flush();
      break;
    case Scheme::kCarp:
    case Scheme::kConsistent:
    case Scheme::kRendezvous:
      static_cast<proxy::HashingProxy&>(node).flush();
      break;
    case Scheme::kHierarchical:
    case Scheme::kCoordinator:
      static_cast<proxy::CacheNode&>(node).flush();
      break;
    case Scheme::kSoap:
      static_cast<proxy::SoapProxy&>(node).flush();
      break;
  }
  ADC_LOG_INFO << "fault injected: flushed " << node.name() << " at t=" << sim.now();
}

// Folds one proxy's erasure-tier counters into the run totals (null tier
// — store or erasure disabled — contributes nothing).
void collect_erasure(ExperimentResult::StoreSummary& out, const store::ErasureTier* tier) {
  if (tier == nullptr) return;
  const store::ErasureStats& s = tier->stats();
  out.stripes_registered += s.stripes_registered;
  out.chunks_stored += s.chunks_stored;
  out.chunks_evicted += s.chunks_evicted;
  out.chunk_requests_sent += s.chunk_requests_sent;
  out.chunk_replies_served += s.chunk_replies_served;
  out.chunk_bytes_sent += s.chunk_bytes_sent;
  out.degraded_started += s.degraded_started;
  out.degraded_recovered += s.degraded_recovered;
  out.degraded_failed += s.degraded_failed;
  out.recovered_bytes += s.recovered_bytes;
  out.chunk_requests_skipped += s.chunk_requests_skipped;
  out.directory_entries += tier->directory_entries();
  out.directory_bytes += tier->directory_bytes();
  out.stripes_healed += s.stripes_healed;
  out.repair_adopted += s.restripe_adopted;
  out.repair_handbacks += s.restripe_handbacks;
  const store::RestripeStats& r = tier->restripe_stats();
  out.repair_offers += r.offers_sent;
  out.repair_retries += r.retries;
  out.repair_rounds += r.rounds;
  out.repair_bytes += r.repair_bytes;
  out.repair_abandoned += r.items_abandoned;
  out.repair_cancelled += r.items_cancelled;
  out.repair_round_bytes_max = std::max(out.repair_round_bytes_max, r.round_bytes_max);
}

}  // namespace

std::string_view scheme_name(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kAdc:
      return "adc";
    case Scheme::kCarp:
      return "carp";
    case Scheme::kConsistent:
      return "consistent";
    case Scheme::kRendezvous:
      return "rendezvous";
    case Scheme::kHierarchical:
      return "hierarchical";
    case Scheme::kCoordinator:
      return "coordinator";
    case Scheme::kSoap:
      return "soap";
  }
  return "adc";
}

std::optional<Scheme> parse_scheme(std::string_view name) noexcept {
  const std::string lowered = util::to_lower(name);
  if (lowered == "adc") return Scheme::kAdc;
  if (lowered == "carp" || lowered == "hash" || lowered == "hashing") return Scheme::kCarp;
  if (lowered == "consistent" || lowered == "ring") return Scheme::kConsistent;
  if (lowered == "rendezvous" || lowered == "hrw") return Scheme::kRendezvous;
  if (lowered == "hierarchical" || lowered == "hier") return Scheme::kHierarchical;
  if (lowered == "coordinator" || lowered == "central") return Scheme::kCoordinator;
  if (lowered == "soap") return Scheme::kSoap;
  return std::nullopt;
}

ExperimentResult run_experiment(const ExperimentConfig& config, const workload::Trace& trace) {
  assert(config.proxies >= 1);

  sim::Simulator sim(config.seed, config.latency);
  sim.set_metrics(sim::MetricsCollector(config.ma_window, config.sample_every));

  const int p = config.proxies;
  std::vector<NodeId> proxy_ids;
  proxy_ids.reserve(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) proxy_ids.push_back(static_cast<NodeId>(i));

  // Node id layout: proxies [0, p), then scheme-specific extras, then the
  // origin, then the client.  Entry proxies are what the client targets.
  std::vector<NodeId> entry_proxies = proxy_ids;
  NodeId next_id = static_cast<NodeId>(p);
  NodeId root_id = kInvalidNode;
  NodeId coordinator_id = kInvalidNode;
  if (config.scheme == Scheme::kHierarchical) root_id = next_id++;
  if (config.scheme == Scheme::kCoordinator) coordinator_id = next_id++;
  const NodeId origin_id = next_id++;
  const NodeId client_id = next_id++;

  // Payload store: one immutable instance shared by every node of the run
  // (sizes and chunk patterns are pure functions of it).  Null while
  // disabled, and then nothing below touches it — store-free runs stay
  // bit-identical.
  store::PayloadStorePtr payload_store;
  if (config.payload.enabled) {
    payload_store = std::make_shared<const store::PayloadStore>(config.payload);
  }
  const store::StoreContext store_ctx{payload_store, proxy_ids};

  const bool membership_on =
      config.membership.swim.enabled && membership_supported(config.scheme);
  std::vector<membership::MemberAgent*> agents;
  // Erasure tiers hosted by membership-wrapped proxies: the tick loop
  // keeps running while any of them still has re-stripe repair queued.
  std::vector<const store::ErasureTier*> repair_tiers;
  // ADC entries purged by confirmed deaths (the silent-peer cleanup);
  // folded into faults.entries_invalidated alongside the reactive path.
  auto purged_entries = std::make_shared<std::uint64_t>(0);

  // Wraps a hashing proxy in a MemberAgent wired for owner-map rebuilds,
  // or registers it bare when membership is off.  `factory` recomputes the
  // scheme's owner map from a surviving membership.
  const auto add_hashing_proxy = [&](int i, std::shared_ptr<const proxy::OwnerMap> owners,
                                     const proxy::HashingProxy::OwnerMapFactory& factory) {
    auto inner = std::make_unique<proxy::HashingProxy>(
        proxy_ids[static_cast<std::size_t>(i)], proxy_name(i), std::move(owners), origin_id,
        baseline_capacity(config), config.baseline_policy, config.entry_caching);
    if (payload_store != nullptr) inner->enable_store(store_ctx);
    if (!membership_on) {
      sim.add_node(std::move(inner));
      return;
    }
    proxy::HashingProxy* hp = inner.get();
    hp->set_owner_map_factory(factory, proxy_ids);
    auto agent = std::make_unique<membership::MemberAgent>(std::move(inner), proxy_ids,
                                                           config.membership);
    membership::MemberAgent::Hooks hooks;
    hooks.peer_dead = [hp](NodeId peer) { hp->handle_peer_dead(peer); };
    hooks.peer_joined = [hp](NodeId peer) { hp->handle_peer_joined(peer); };
    if (store::ErasureTier* tier = hp->erasure_tier();
        tier != nullptr && tier->restripe_enabled()) {
      hooks.send_restripe = [tier](sim::Transport& net) { tier->restripe_round(net); };
      hooks.restripe_pending = [tier] { return tier->restripe_pending(); };
      repair_tiers.push_back(tier);
    }
    agent->set_hooks(std::move(hooks));
    agents.push_back(agent.get());
    sim.add_node(std::move(agent));
  };

  switch (config.scheme) {
    case Scheme::kAdc: {
      for (int i = 0; i < p; ++i) {
        auto inner = std::make_unique<core::AdcProxy>(proxy_ids[static_cast<std::size_t>(i)],
                                                      proxy_name(i), config.adc, proxy_ids,
                                                      origin_id);
        if (payload_store != nullptr) inner->enable_store(store_ctx);
        if (!membership_on) {
          sim.add_node(std::move(inner));
          continue;
        }
        core::AdcProxy* adc = inner.get();
        auto agent = std::make_unique<membership::MemberAgent>(std::move(inner), proxy_ids,
                                                               config.membership);
        membership::MemberAgent::Hooks hooks;
        hooks.peer_dead = [adc, purged_entries](NodeId peer) {
          *purged_entries += adc->handle_peer_dead(peer);
        };
        hooks.peer_joined = [adc](NodeId peer) { adc->handle_peer_joined(peer); };
        hooks.send_repair = [adc](sim::Transport& net, NodeId peer, std::size_t batch) {
          adc->send_anti_entropy(net, peer, batch);
        };
        if (store::ErasureTier* tier = adc->erasure_tier();
            tier != nullptr && tier->restripe_enabled()) {
          hooks.send_restripe = [tier](sim::Transport& net) { tier->restripe_round(net); };
          hooks.restripe_pending = [tier] { return tier->restripe_pending(); };
          repair_tiers.push_back(tier);
        }
        agent->set_hooks(std::move(hooks));
        agents.push_back(agent.get());
        sim.add_node(std::move(agent));
      }
      break;
    }
    case Scheme::kCarp: {
      assert(config.carp_load_factors.empty() ||
             config.carp_load_factors.size() == static_cast<std::size_t>(p));
      std::vector<hash::CarpArray::Member> members;
      for (int i = 0; i < p; ++i) {
        const double load_factor =
            config.carp_load_factors.empty() ? 1.0
                                             : config.carp_load_factors[static_cast<std::size_t>(i)];
        members.push_back({proxy_name(i), proxy_ids[static_cast<std::size_t>(i)], load_factor});
      }
      // The factory rebuilds the array over the surviving subset of the
      // startup membership, keeping each member's name and load factor so
      // ownership of the untouched key space is stable.
      const proxy::HashingProxy::OwnerMapFactory factory =
          [members](const std::vector<NodeId>& ids) -> std::shared_ptr<const proxy::OwnerMap> {
        std::vector<hash::CarpArray::Member> live;
        for (const hash::CarpArray::Member& m : members) {
          if (std::find(ids.begin(), ids.end(), m.node) != ids.end()) live.push_back(m);
        }
        return std::make_shared<proxy::CarpOwnerMap>(hash::CarpArray(std::move(live)));
      };
      auto owners = std::make_shared<proxy::CarpOwnerMap>(hash::CarpArray(std::move(members)));
      for (int i = 0; i < p; ++i) add_hashing_proxy(i, owners, factory);
      break;
    }
    case Scheme::kConsistent: {
      const proxy::HashingProxy::OwnerMapFactory factory =
          [](const std::vector<NodeId>& ids) -> std::shared_ptr<const proxy::OwnerMap> {
        hash::ConsistentHashRing ring;
        for (const NodeId id : ids) ring.add_member(id, proxy_name(static_cast<int>(id)));
        return std::make_shared<proxy::RingOwnerMap>(std::move(ring));
      };
      auto owners = factory(proxy_ids);
      for (int i = 0; i < p; ++i) add_hashing_proxy(i, owners, factory);
      break;
    }
    case Scheme::kRendezvous: {
      const proxy::HashingProxy::OwnerMapFactory factory =
          [](const std::vector<NodeId>& ids) -> std::shared_ptr<const proxy::OwnerMap> {
        hash::RendezvousHash hrw;
        for (const NodeId id : ids) hrw.add_member(id, proxy_name(static_cast<int>(id)));
        return std::make_shared<proxy::RendezvousOwnerMap>(std::move(hrw));
      };
      auto owners = factory(proxy_ids);
      for (int i = 0; i < p; ++i) add_hashing_proxy(i, owners, factory);
      break;
    }
    case Scheme::kHierarchical: {
      for (int i = 0; i < p; ++i) {
        auto leaf = std::make_unique<proxy::CacheNode>(proxy_ids[static_cast<std::size_t>(i)],
                                                       proxy_name(i), root_id,
                                                       baseline_capacity(config),
                                                       config.baseline_policy);
        if (payload_store != nullptr) leaf->enable_store(store_ctx);
        sim.add_node(std::move(leaf));
      }
      const std::size_t root_capacity = config.root_cache_capacity != 0
                                            ? config.root_cache_capacity
                                            : baseline_capacity(config);
      auto root = std::make_unique<proxy::CacheNode>(root_id, "root", origin_id, root_capacity,
                                                     config.baseline_policy);
      if (payload_store != nullptr) root->enable_store(store_ctx);
      sim.add_node(std::move(root));
      break;
    }
    case Scheme::kCoordinator: {
      for (int i = 0; i < p; ++i) {
        auto backend = std::make_unique<proxy::CacheNode>(proxy_ids[static_cast<std::size_t>(i)],
                                                          proxy_name(i), origin_id,
                                                          baseline_capacity(config),
                                                          config.baseline_policy);
        if (payload_store != nullptr) backend->enable_store(store_ctx);
        sim.add_node(std::move(backend));
      }
      sim.add_node(std::make_unique<proxy::Coordinator>(coordinator_id, "coordinator",
                                                        proxy_ids));
      entry_proxies = {coordinator_id};
      break;
    }
    case Scheme::kSoap: {
      auto categories = std::make_shared<proxy::CategoryMap>(config.soap_categories);
      for (int i = 0; i < p; ++i) {
        sim.add_node(std::make_unique<proxy::SoapProxy>(
            proxy_ids[static_cast<std::size_t>(i)], proxy_name(i), categories, proxy_ids,
            origin_id, baseline_capacity(config)));
      }
      break;
    }
  }

  sim::VersionOraclePtr oracle;
  if (config.object_update_interval > 0) {
    oracle = std::make_shared<sim::VersionOracle>(config.object_update_interval);
  }
  auto origin = std::make_unique<proxy::OriginServer>(origin_id, "origin", oracle);
  origin->set_sizer(payload_store);
  sim.add_node(std::move(origin));

  TraceStream stream(trace);
  auto client_ptr = std::make_unique<proxy::Client>(client_id, "client", stream, entry_proxies,
                                                    config.entry_policy, config.concurrency);
  proxy::Client& client = *client_ptr;
  client.set_version_oracle(oracle);
  sim.add_node(std::move(client_ptr));

  if (config.slow_proxy_delay > 0 && config.slow_proxy_index >= 0 &&
      config.slow_proxy_index < p) {
    sim.network().set_node_delay(proxy_ids[static_cast<std::size_t>(config.slow_proxy_index)],
                                 config.slow_proxy_delay);
  }

  if (config.fault.at_completed > 0) {
    const int index = config.fault.proxy_index;
    assert(index >= 0 && index < p && "fault.proxy_index out of range");
    const NodeId victim = proxy_ids[static_cast<std::size_t>(index)];
    const Scheme scheme = config.scheme;
    client.at_completed(config.fault.at_completed, [&sim, victim, scheme, membership_on]() {
      flush_proxy(sim, victim, scheme, membership_on);
    });
  }

  // Message-level fault injection: the FaultyNetwork decides per transfer
  // on the simulator's send path; crash windows additionally wipe the
  // victim's state at the window start (the messages it would have
  // received while down are dropped by the hook).
  std::unique_ptr<fault::FaultyNetwork> chaos;
  if (!config.fault_plan.is_zero()) {
    chaos = std::make_unique<fault::FaultyNetwork>(config.fault_plan);
    sim.set_fault_hook(chaos.get());
    const Scheme scheme = config.scheme;
    for (const fault::CrashWindow& window : config.fault_plan.crashes) {
      if (!window.flush_state) continue;
      assert(window.node >= 0 && window.node < static_cast<NodeId>(p) &&
             "crash window must name a proxy");
      sim.schedule(window.at, [&sim, victim = window.node, scheme, membership_on]() {
        flush_proxy(sim, victim, scheme, membership_on);
      });
    }
  }
  client.set_request_timeout(config.request_timeout);

  // Bandwidth model: the TransferScheduler owns delivery timing for every
  // send over a finite-capacity link (installed before the first request
  // so t=0 traffic is modeled too).  With the payload store on, degraded
  // reads additionally steer chunk requests toward stripe peers with the
  // lightest egress backlog.
  std::unique_ptr<link::TransferScheduler> link_sched;
  if (config.link.enabled) {
    link_sched =
        std::make_unique<link::TransferScheduler>(sim, link::LinkModel(config.link, origin_id));
    sim.set_link_hook(link_sched.get());
    if (payload_store != nullptr) {
      link::TransferScheduler* sched = link_sched.get();
      const store::ErasureTier::LoadProbe probe = [sched](NodeId peer) {
        return sched->backlog_bytes(peer);
      };
      for (int i = 0; i < p; ++i) {
        sim::Node* registered = &sim.node(proxy_ids[static_cast<std::size_t>(i)]);
        sim::Node* node =
            membership_on ? &static_cast<membership::MemberAgent*>(registered)->inner()
                          : registered;
        switch (config.scheme) {
          case Scheme::kAdc:
            static_cast<core::AdcProxy*>(node)->set_erasure_load_probe(probe);
            break;
          case Scheme::kCarp:
          case Scheme::kConsistent:
          case Scheme::kRendezvous:
            static_cast<proxy::HashingProxy*>(node)->set_erasure_load_probe(probe);
            break;
          default:
            break;  // the other schemes host no erasure tier
        }
      }
    }
  }

  client.start(sim);

  // Membership tick: one recurring event drives every member agent's
  // detector (probes, timeouts, repair rounds).  It re-arms only while the
  // client still has work, so the run terminates with the event queue.
  std::function<void()> membership_tick;
  if (!agents.empty()) {
    const SimTime tick_every = std::max<SimTime>(1, config.membership.tick_every);
    // Re-arm while the client has work OR re-stripe repair is still
    // queued: background healing may outlive the trace, and every queued
    // item eventually acks or abandons, so the extension is bounded.
    const auto restripe_pending = [&repair_tiers] {
      for (const store::ErasureTier* tier : repair_tiers) {
        if (tier->restripe_pending()) return true;
      }
      return false;
    };
    membership_tick = [&sim, &client, &agents, &membership_tick, restripe_pending,
                       tick_every]() {
      for (membership::MemberAgent* agent : agents) agent->tick(sim, sim.now());
      if (!client.drained() || restripe_pending()) {
        sim.schedule_after(tick_every, membership_tick);
      }
    };
    sim.schedule_after(tick_every, membership_tick);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t events = sim.run();
  const auto wall_end = std::chrono::steady_clock::now();

  if (!client.drained()) {
    ADC_LOG_WARN << "experiment ended with "
                 << (client.issued() - client.completed() - client.failed())
                 << " requests still in flight";
  }

  ExperimentResult result;
  result.summary = sim.metrics().summary();
  result.series = sim.metrics().series();
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  result.events = events;
  result.messages = sim.network().messages_sent();
  result.sim_end_time = sim.now();
  result.origin_served =
      static_cast<const proxy::OriginServer&>(sim.node(origin_id)).requests_served();
  result.store.origin_bytes_served =
      static_cast<const proxy::OriginServer&>(sim.node(origin_id)).bytes_served();
  result.hops_p50 = sim.metrics().hop_histogram().percentile(0.50);
  result.hops_p95 = sim.metrics().hop_histogram().percentile(0.95);
  result.hops_max = sim.metrics().hop_histogram().max_seen();
  result.latency_p50 = sim.metrics().latency_tracker().percentile(0.50);
  result.latency_p95 = sim.metrics().latency_tracker().percentile(0.95);
  result.latency_p99 = sim.metrics().latency_tracker().percentile(0.99);
  result.latency_p999 = sim.metrics().latency_tracker().percentile(0.999);
  result.summary.latency_p99 = result.latency_p99;
  result.summary.latency_p999 = result.latency_p999;
  if (chaos != nullptr) result.faults = chaos->counters();
  result.faults.timeouts += client.failed();
  result.faults.entries_invalidated += *purged_entries;

  // Per-link-class traffic totals (message + byte counters kept by the
  // network on every send).
  {
    const sim::Network& net = sim.network();
    sim::TrafficTotals& traffic = result.summary.traffic;
    traffic.request_messages = net.class_messages(sim::LinkClass::kRequest);
    traffic.reply_messages = net.class_messages(sim::LinkClass::kReply);
    traffic.control_messages = net.class_messages(sim::LinkClass::kControl);
    traffic.store_messages = net.class_messages(sim::LinkClass::kStore);
    traffic.request_bytes = net.class_bytes(sim::LinkClass::kRequest);
    traffic.reply_bytes = net.class_bytes(sim::LinkClass::kReply);
    traffic.control_bytes = net.class_bytes(sim::LinkClass::kControl);
    traffic.store_bytes = net.class_bytes(sim::LinkClass::kStore);
  }

  if (link_sched != nullptr) {
    const link::TransferStats& ls = link_sched->stats();
    result.link.transfers = ls.transfers;
    result.link.passthrough = ls.passthrough;
    result.link.queued = ls.queued;
    result.link.bursts = ls.bursts;
    result.link.bytes = ls.bytes;
    result.link.max_backlog_bytes = ls.max_backlog_bytes;
    result.link.max_wait = ls.max_wait;
    result.link.wait_p50 = link_sched->wait_tracker().percentile(0.50);
    result.link.wait_p99 = link_sched->wait_tracker().percentile(0.99);
    result.link.wait_p999 = link_sched->wait_tracker().percentile(0.999);
  }

  // A crashed member's own detector keeps ticking into isolation — it ends
  // up declaring everyone *else* dead and rebuilding an owner map of just
  // itself.  That degenerate self-view must not pollute the cluster-level
  // membership summary, so members a majority of their peers confirmed
  // dead are excluded from it (with zero churn nobody is excluded).
  const auto majority_confirmed_dead = [&agents](NodeId id) {
    std::size_t dead = 0;
    std::size_t voters = 0;
    for (const membership::MemberAgent* peer : agents) {
      if (peer->id() == id) continue;
      ++voters;
      if (peer->detector().state(id) == membership::PeerState::kDead) ++dead;
    }
    return voters > 0 && dead * 2 > voters;
  };

  for (int i = 0; i < p; ++i) {
    const NodeId proxy_id = proxy_ids[static_cast<std::size_t>(i)];
    const sim::Node* registered = &sim.node(proxy_id);
    bool count_membership = membership_on;
    if (membership_on) {
      const auto& agent = static_cast<const membership::MemberAgent&>(*registered);
      count_membership = !majority_confirmed_dead(proxy_id);
      if (count_membership) {
        const membership::SwimStats& swim = agent.detector().stats();
        result.membership.max_epoch =
            std::max(result.membership.max_epoch, agent.detector().epoch());
        result.membership.deaths += swim.deaths;
        result.membership.joins += swim.joins;
        result.membership.suspicions += swim.suspicions;
        result.membership.refutations += swim.refutations;
        result.membership.repair_rounds += agent.repair().rounds_fired();
      }
      registered = &agent.inner();
    }
    const sim::Node& node = *registered;
    ProxySnapshot snapshot;
    snapshot.name = node.name();
    if (config.scheme == Scheme::kAdc) {
      const auto& adc = static_cast<const core::AdcProxy&>(node);
      snapshot.requests_received = adc.stats().requests_received;
      snapshot.local_hits = adc.stats().local_hits;
      snapshot.cached_objects = adc.config().selective_caching
                                    ? adc.tables().caching().size()
                                    : adc.stats().cache_admissions;
      snapshot.table_entries = adc.tables().total_entries();
      if (config.collect_cache_contents && adc.config().selective_caching) {
        adc.tables().caching().for_each([&snapshot](const cache::TableEntry& entry) {
          snapshot.cached_ids.push_back(entry.object);
        });
      }

      result.adc_totals.requests_received += adc.stats().requests_received;
      result.adc_totals.local_hits += adc.stats().local_hits;
      result.adc_totals.forwards_learned += adc.stats().forwards_learned;
      result.adc_totals.forwards_random += adc.stats().forwards_random;
      result.adc_totals.forwards_origin += adc.stats().forwards_origin;
      result.adc_totals.loops_detected += adc.stats().loops_detected;
      result.adc_totals.max_forwards_hit += adc.stats().max_forwards_hit;
      result.adc_totals.replies_relayed += adc.stats().replies_relayed;
      result.adc_totals.resolver_claims += adc.stats().resolver_claims;
      result.adc_totals.cache_admissions += adc.stats().cache_admissions;
      result.adc_totals.orphan_replies += adc.stats().orphan_replies;
      result.adc_totals.peer_invalidations += adc.stats().peer_invalidations;
      result.adc_totals.stale_claims_rejected += adc.stats().stale_claims_rejected;
      result.adc_totals.repair_offers += adc.stats().repair_offers;
      result.adc_totals.repair_counter_offers += adc.stats().repair_counter_offers;
      result.adc_totals.repairs_applied += adc.stats().repairs_applied;
      result.adc_totals.payload_bytes_served += adc.stats().payload_bytes_served;
      result.adc_totals.payload_bytes_fetched += adc.stats().payload_bytes_fetched;
      result.adc_totals.degraded_reads_started += adc.stats().degraded_reads_started;
      result.adc_totals.degraded_reads_served += adc.stats().degraded_reads_served;
      snapshot.payload_bytes_served = adc.stats().payload_bytes_served;
      result.store.payload_bytes_served += adc.stats().payload_bytes_served;
      result.store.payload_bytes_fetched += adc.stats().payload_bytes_fetched;
      collect_erasure(result.store, adc.erasure());
    } else if (config.scheme == Scheme::kHierarchical ||
               config.scheme == Scheme::kCoordinator) {
      const auto& cn = static_cast<const proxy::CacheNode&>(node);
      snapshot.requests_received = cn.stats().requests_received;
      snapshot.local_hits = cn.stats().local_hits;
      snapshot.cached_objects = cn.cache().size();
      snapshot.payload_bytes_served = cn.stats().payload_bytes_served;
      result.store.payload_bytes_served += cn.stats().payload_bytes_served;
      result.store.payload_bytes_fetched += cn.stats().payload_bytes_fetched;
      if (config.collect_cache_contents) snapshot.cached_ids = cn.cache().eviction_order();
    } else if (config.scheme == Scheme::kSoap) {
      const auto& sp = static_cast<const proxy::SoapProxy&>(node);
      snapshot.requests_received = sp.stats().requests_received;
      snapshot.local_hits = sp.stats().local_hits;
      snapshot.cached_objects = sp.cache().size();
      if (config.collect_cache_contents) snapshot.cached_ids = sp.cache().eviction_order();
    } else {
      const auto& hp = static_cast<const proxy::HashingProxy&>(node);
      snapshot.requests_received = hp.stats().requests_received;
      snapshot.local_hits = hp.stats().local_hits;
      snapshot.cached_objects = hp.cache().size();
      snapshot.payload_bytes_served = hp.stats().payload_bytes_served;
      result.store.payload_bytes_served += hp.stats().payload_bytes_served;
      result.store.payload_bytes_fetched += hp.stats().payload_bytes_fetched;
      collect_erasure(result.store, hp.erasure());
      if (count_membership) {
        result.membership.max_reshuffle_fraction = std::max(
            result.membership.max_reshuffle_fraction, hp.stats().max_reshuffle_fraction);
      }
      if (config.collect_cache_contents) snapshot.cached_ids = hp.cache().eviction_order();
    }
    // Per-owner load accounting: what each proxy processed and served,
    // feeding the max/min fairness ratio the adversarial suite reports.
    result.summary.owner_requests.push_back(snapshot.requests_received);
    result.summary.owner_hits.push_back(snapshot.local_hits);
    result.summary.owner_bytes.push_back(snapshot.payload_bytes_served);
    result.proxies.push_back(std::move(snapshot));
  }

  // Post-run stripe census: union the chunk directories of every proxy
  // still standing at sim end (crash windows that never restarted exclude
  // their victim) and count the objects that can no longer gather k
  // distinct chunk indexes — the set one more unavailability strands.
  // With proactive repair this shrinks back toward zero as stripes heal.
  if (payload_store != nullptr && payload_store->config().erasure.enabled) {
    std::unordered_set<NodeId> down;
    for (const fault::CrashWindow& window : config.fault_plan.crashes) {
      if (window.at <= result.sim_end_time && window.restart > result.sim_end_time) {
        down.insert(window.node);
      }
    }
    // Object -> row of `index_mask` (the chunk indexes seen for it).
    util::FlatIndex mask_row;
    std::vector<std::uint64_t> index_mask;
    for (int i = 0; i < p; ++i) {
      const NodeId proxy_id = proxy_ids[static_cast<std::size_t>(i)];
      if (down.count(proxy_id) != 0) continue;
      const sim::Node* registered = &sim.node(proxy_id);
      if (membership_on) {
        registered = &static_cast<const membership::MemberAgent*>(registered)->inner();
      }
      const store::ErasureTier* tier = nullptr;
      switch (config.scheme) {
        case Scheme::kAdc:
          tier = static_cast<const core::AdcProxy*>(registered)->erasure();
          break;
        case Scheme::kCarp:
        case Scheme::kConsistent:
        case Scheme::kRendezvous:
          tier = static_cast<const proxy::HashingProxy*>(registered)->erasure();
          break;
        default:
          break;  // the other schemes host no erasure tier
      }
      if (tier == nullptr) continue;
      // RdpCode caps the stripe at 64 chunks, so every valid index fits.
      tier->for_each_chunk([&](ObjectId object, int index, std::uint64_t) {
        if (index < 0 || index >= 64) return;
        std::uint32_t row = mask_row.find(object);
        if (row == util::FlatIndex::kNone) {
          row = static_cast<std::uint32_t>(index_mask.size());
          mask_row.assign(object, row);
          index_mask.push_back(0);
        }
        index_mask[row] |= 1ULL << index;
      });
    }
    const int k = payload_store->code().k();
    result.store.stripe_objects_tracked += index_mask.size();
    for (const std::uint64_t mask : index_mask) {
      if (std::popcount(mask) < k) ++result.store.stripes_stranded;
    }
  }

  return result;
}

}  // namespace adc::driver
