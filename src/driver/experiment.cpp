#include "driver/experiment.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "fault/faulty_network.h"
#include "hash/carp.h"
#include "link/transfer_scheduler.h"
#include "proxy/coordinator.h"
#include "proxy/origin_server.h"
#include "sim/simulator.h"
#include "store/restripe.h"
#include "util/logging.h"

namespace adc::driver {
namespace {

std::size_t baseline_capacity(const ExperimentConfig& config) {
  return config.baseline_cache_capacity != 0 ? config.baseline_cache_capacity
                                             : config.adc.caching_table_size;
}

// Cold-restarts a proxy: its cache and learned tables are wiped,
// connectivity survives.  Shared by the milestone-triggered FaultSpec and
// the time-triggered crash windows of a FaultPlan.
void flush_proxy(const sim::Simulator& sim, sim::ProxyAgent& victim) {
  victim.flush();
  ADC_LOG_INFO << "fault injected: flushed " << victim.name() << " at t=" << sim.now();
}

void add_adc_totals(core::AdcProxyStats& out, const core::AdcProxyStats& s) {
  out.requests_received += s.requests_received;
  out.local_hits += s.local_hits;
  out.forwards_learned += s.forwards_learned;
  out.forwards_random += s.forwards_random;
  out.forwards_origin += s.forwards_origin;
  out.loops_detected += s.loops_detected;
  out.max_forwards_hit += s.max_forwards_hit;
  out.replies_relayed += s.replies_relayed;
  out.resolver_claims += s.resolver_claims;
  out.cache_admissions += s.cache_admissions;
  out.orphan_replies += s.orphan_replies;
  out.peer_invalidations += s.peer_invalidations;
  out.stale_claims_rejected += s.stale_claims_rejected;
  out.repair_offers += s.repair_offers;
  out.repair_counter_offers += s.repair_counter_offers;
  out.repairs_applied += s.repairs_applied;
  out.payload_bytes_served += s.payload_bytes_served;
  out.payload_bytes_fetched += s.payload_bytes_fetched;
  out.degraded_reads_started += s.degraded_reads_started;
  out.degraded_reads_served += s.degraded_reads_served;
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

std::string ExperimentConfig::validate() const {
  const std::string range = " must name a proxy in [0, " + std::to_string(proxies) + ")";
  if (proxies < 1) return "proxies must be at least 1, got " + std::to_string(proxies);
  if (scheme != Scheme::kAdc && baseline_capacity(*this) == 0) {
    return "baseline_cache_capacity and adc.caching_table_size are both 0: a " +
           std::string(scheme_name(scheme)) + " proxy needs a cache of at least 1 object";
  }
  if (scheme == Scheme::kAdc && !adc.selective_caching && adc.caching_table_size == 0) {
    return "adc.caching_table_size must be at least 1 with adc.selective_caching off";
  }
  if (scheme == Scheme::kCarp && !carp_load_factors.empty() &&
      carp_load_factors.size() != static_cast<std::size_t>(proxies)) {
    return "carp_load_factors has " + std::to_string(carp_load_factors.size()) +
           " entries for " + std::to_string(proxies) + " proxies";
  }
  if (fault.at_completed > 0 && (fault.proxy_index < 0 || fault.proxy_index >= proxies)) {
    return "fault.proxy_index " + std::to_string(fault.proxy_index) + range;
  }
  for (const fault::CrashWindow& window : fault_plan.crashes) {
    if (window.flush_state && (window.node < 0 || window.node >= proxies)) {
      return "flush_state crash window on node " + std::to_string(window.node) + range;
    }
  }
  const int attempts = payload.erasure.repair_max_attempts;
  if (attempts < 1 || attempts > store::kMaxRepairAttempts) {
    return "payload.erasure.repair_max_attempts must be in [1, " +
           std::to_string(store::kMaxRepairAttempts) + "], got " + std::to_string(attempts);
  }
  return {};
}

ExperimentResult run_experiment(const ExperimentConfig& config, const workload::Trace& trace) {
  if (const std::string error = config.validate(); !error.empty()) {
    throw std::invalid_argument("run_experiment: " + error);
  }

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

  ProxySpec spec;
  spec.scheme = config.scheme;
  spec.proxies = proxy_ids;
  spec.upstream = config.scheme == Scheme::kHierarchical ? root_id : origin_id;
  spec.adc = config.adc;
  spec.cache_capacity = baseline_capacity(config);
  spec.policy = config.baseline_policy;
  spec.entry_caching = config.entry_caching;
  spec.carp_load_factors = config.carp_load_factors;
  spec.soap_categories = config.soap_categories;
  spec.store = payload_store;
  spec.membership = config.membership;

  // The protocol agent of every proxy index, and the membership wrappers
  // around them (empty unless membership is on for a flat scheme).
  std::vector<sim::ProxyAgent*> agents;
  std::vector<membership::MemberAgent*> members;
  for (const NodeId id : proxy_ids) {
    BuiltProxy built = build_proxy(spec, id, hash::member_name(id));
    agents.push_back(built.agent);
    if (built.member != nullptr) members.push_back(built.member);
    sim.add_node(std::move(built.node));
  }
  const bool membership_on = !members.empty();

  if (config.scheme == Scheme::kHierarchical) {
    // The root is one more cache node, above the leaves and below the
    // origin, with a leaf's capacity.
    ProxySpec root = spec;
    root.upstream = origin_id;
    sim.add_node(build_proxy(root, root_id, "root").node);
  }
  if (config.scheme == Scheme::kCoordinator) {
    sim.add_node(std::make_unique<proxy::Coordinator>(coordinator_id, "coordinator", proxy_ids));
    entry_proxies = {coordinator_id};
  }

  sim::VersionOraclePtr oracle;
  if (config.object_update_interval > 0) {
    oracle = std::make_shared<sim::VersionOracle>(config.object_update_interval);
  }
  auto origin_ptr = std::make_unique<proxy::OriginServer>(origin_id, "origin", oracle);
  const proxy::OriginServer& origin = *origin_ptr;
  origin_ptr->set_sizer(payload_store);
  sim.add_node(std::move(origin_ptr));

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
    sim::ProxyAgent* victim = agents[static_cast<std::size_t>(config.fault.proxy_index)];
    client.at_completed(config.fault.at_completed, [&sim, victim]() { flush_proxy(sim, *victim); });
  }

  // Message-level fault injection: the FaultyNetwork decides per transfer
  // on the simulator's send path; crash windows additionally wipe the
  // victim's state at the window start (the messages it would have
  // received while down are dropped by the hook).
  std::unique_ptr<fault::FaultyNetwork> chaos;
  if (!config.fault_plan.is_zero()) {
    chaos = std::make_unique<fault::FaultyNetwork>(config.fault_plan);
    sim.set_fault_hook(chaos.get());
    for (const fault::CrashWindow& window : config.fault_plan.crashes) {
      if (!window.flush_state) continue;
      sim::ProxyAgent* victim = agents[static_cast<std::size_t>(window.node)];
      sim.schedule(window.at, [&sim, victim]() { flush_proxy(sim, *victim); });
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
    link::TransferScheduler* sched = link_sched.get();
    const store::ErasureTier::LoadProbe probe = [sched](NodeId peer) {
      return sched->backlog_bytes(peer);
    };
    for (const sim::ProxyAgent* agent : agents) {
      if (store::ErasureTier* tier = agent->erasure_tier()) tier->set_load_probe(probe);
    }
  }

  client.start(sim);

  // Membership tick: one recurring event drives every member agent's
  // detector (probes, timeouts, repair rounds).  It re-arms only while the
  // client still has work, so the run terminates with the event queue.
  std::function<void()> membership_tick;
  if (membership_on) {
    // Tick cadence in sim ticks: finer than every SWIM timeout.
    constexpr SimTime kTickEvery = 50;
    // Re-arm while the client has work OR re-stripe repair is still
    // queued: background healing may outlive the trace, and every queued
    // item eventually acks or abandons, so the extension is bounded.
    const auto restripe_pending = [&members] {
      return std::any_of(members.begin(), members.end(),
                         [](const membership::MemberAgent* m) { return m->restripe_pending(); });
    };
    membership_tick = [&sim, &client, &members, &membership_tick, restripe_pending]() {
      for (membership::MemberAgent* member : members) member->tick(sim, sim.now());
      if (!client.drained() || restripe_pending()) {
        sim.schedule_after(kTickEvery, membership_tick);
      }
    };
    sim.schedule_after(kTickEvery, membership_tick);
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
  result.origin_served = origin.requests_served();
  result.store.origin_bytes_served = origin.bytes_served();
  const sim::PercentileTracker& hops = sim.metrics().hop_histogram();
  result.hops_p50 = static_cast<int>(hops.percentile(0.50));
  result.hops_p95 = static_cast<int>(hops.percentile(0.95));
  result.hops_max = static_cast<int>(hops.max_seen());
  result.latency_p50 = sim.metrics().latency_tracker().percentile(0.50);
  result.latency_p95 = sim.metrics().latency_tracker().percentile(0.95);
  result.latency_p99 = sim.metrics().latency_tracker().percentile(0.99);
  result.latency_p999 = sim.metrics().latency_tracker().percentile(0.999);
  result.summary.latency_p99 = result.latency_p99;
  result.summary.latency_p999 = result.latency_p999;
  if (chaos != nullptr) result.faults = chaos->counters();
  result.faults.timeouts += client.failed();

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
  const auto majority_confirmed_dead = [&members](NodeId id) {
    std::size_t dead = 0;
    std::size_t voters = 0;
    for (const membership::MemberAgent* peer : members) {
      if (peer->id() == id) continue;
      ++voters;
      if (peer->detector().state(id) == membership::PeerState::kDead) ++dead;
    }
    return voters > 0 && dead * 2 > voters;
  };

  for (int i = 0; i < p; ++i) {
    const sim::ProxyAgent& agent = *agents[static_cast<std::size_t>(i)];
    bool count_membership = membership_on;
    if (membership_on) {
      const membership::MemberAgent& member = *members[static_cast<std::size_t>(i)];
      count_membership = !majority_confirmed_dead(member.id());
      if (count_membership) {
        const membership::SwimStats& swim = member.detector().stats();
        result.membership.max_epoch =
            std::max(result.membership.max_epoch, member.detector().epoch());
        result.membership.deaths += swim.deaths;
        result.membership.joins += swim.joins;
        result.membership.suspicions += swim.suspicions;
        result.membership.refutations += swim.refutations;
        result.membership.repair_rounds += member.repair().rounds_fired();
      }
    }
    ProxySnapshot snapshot = agent.snapshot(config.collect_cache_contents);
    if (count_membership) {
      result.membership.max_reshuffle_fraction =
          std::max(result.membership.max_reshuffle_fraction, snapshot.max_reshuffle_fraction);
    }
    if (config.scheme == Scheme::kAdc) {
      add_adc_totals(result.adc_totals, static_cast<const core::AdcProxy&>(agent).stats());
    }
    result.store.payload_bytes_served += snapshot.payload_bytes_served;
    result.store.payload_bytes_fetched += snapshot.payload_bytes_fetched;
    collect_erasure(result.store, agent.erasure_tier());
    // ADC entries purged by confirmed deaths (the silent-peer cleanup).
    result.faults.entries_invalidated += snapshot.entries_invalidated;
    // Per-owner load accounting: what each proxy processed and served,
    // feeding the max/min fairness ratio the adversarial suite reports.
    result.summary.owner_requests.push_back(snapshot.requests_received);
    result.summary.owner_hits.push_back(snapshot.local_hits);
    result.summary.owner_bytes.push_back(snapshot.payload_bytes_served);
    result.proxies.push_back(std::move(snapshot));
  }

  // Post-run stripe census: over the chunk directories of every proxy
  // still standing at sim end (crash windows that never restarted exclude
  // their victim), count the objects that can no longer gather k distinct
  // chunk indexes — the set one more unavailability strands.  With
  // proactive repair this shrinks back toward zero as stripes heal.  The
  // census empties the directories; snapshots and erasure counters were
  // taken above and nothing reads a directory after this.
  if (payload_store != nullptr && payload_store->config().erasure.enabled) {
    std::unordered_set<NodeId> down;
    for (const fault::CrashWindow& window : config.fault_plan.crashes) {
      if (window.at <= result.sim_end_time && window.restart > result.sim_end_time) {
        down.insert(window.node);
      }
    }
    std::vector<store::ErasureTier*> standing;
    for (const sim::ProxyAgent* agent : agents) {
      store::ErasureTier* tier = agent->erasure_tier();
      if (tier != nullptr && down.count(agent->id()) == 0) standing.push_back(tier);
    }
    const store::StripeCensus census =
        store::take_stripe_census(standing, payload_store->code().k());
    result.store.stripe_objects_tracked += census.objects;
    result.store.stripes_stranded += census.stranded;
  }

  return result;
}

}  // namespace adc::driver
