#include "server/daemon.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/adc_proxy.h"
#include "driver/proxy_factory.h"
#include "proxy/hashing_proxy.h"
#include "proxy/origin_server.h"
#include "store/erasure_tier.h"
#include "store/rdp_coding.h"
#include "util/logging.h"

namespace adc::server {
namespace {

// The wire frame's body field and the store's sample bound are one limit
// seen from two modules; a drift between them would silently truncate.
static_assert(net::kMaxBodyBytes == store::kMaxBodySample,
              "wire body capacity must match the store's body sample size");

std::string role_name(DaemonRole role) {
  for (const auto& [name, known] : daemon_role_names()) {
    if (known == role) return name;
  }
  return "adc";
}

fault::PeerHealth::Config health_for_node(fault::PeerHealth::Config health, NodeId node) {
  // Per-node jitter streams, so members do not redial in lockstep.
  health.seed += static_cast<std::uint64_t>(node);
  return health;
}

DaemonConfig validated(DaemonConfig config) {
  if (const std::string error = config.validate(); !error.empty()) {
    throw std::invalid_argument("NodeDaemon: " + error);
  }
  return config;
}

}  // namespace

const std::vector<std::pair<std::string, DaemonRole>>& daemon_role_names() {
  static const std::vector<std::pair<std::string, DaemonRole>> names = {
      {"adc", DaemonRole::kAdcProxy},
      {"proxy", DaemonRole::kAdcProxy},
      {"carp", DaemonRole::kCarpProxy},
      {"origin", DaemonRole::kOrigin},
  };
  return names;
}

std::string DaemonConfig::validate() const {
  const store::ErasureConfig& erasure = payload.erasure;
  if (erasure.enabled && !payload.enabled) return "--erasure 1 needs --payload 1";
  if (erasure.enabled && (erasure.data_chunks < store::RdpCode::kMinDataChunks ||
                          erasure.data_chunks > store::RdpCode::kMaxDataChunks)) {
    return "--erasure-k must be in [" + std::to_string(store::RdpCode::kMinDataChunks) + ", " +
           std::to_string(store::RdpCode::kMaxDataChunks) + "], got " +
           std::to_string(erasure.data_chunks);
  }
  if (erasure.repair_max_attempts < 1 || erasure.repair_max_attempts > store::kMaxRepairAttempts) {
    return "--repair-max-attempts must be in [1, " + std::to_string(store::kMaxRepairAttempts) +
           "], got " + std::to_string(erasure.repair_max_attempts);
  }
  if (erasure.restripe && !erasure.enabled) return "--restripe 1 needs --erasure 1";
  if (erasure.restripe && !membership.swim.enabled) {
    return "--restripe 1 needs --membership 1 (deaths come from SWIM)";
  }
  if (role != DaemonRole::kOrigin && origin_id < 0) return "proxies need --origin";
  if (role == DaemonRole::kCarpProxy && carp_cache_capacity == 0) {
    return "--cache-capacity must be at least 1 for --role carp";
  }
  if (role == DaemonRole::kAdcProxy && !adc.selective_caching && adc.caching_table_size == 0) {
    return "--caching must be at least 1 with selective caching off";
  }
  return {};
}

NodeDaemon::NodeDaemon(DaemonConfig config)
    : config_(validated(std::move(config))),
      // Fold the node id into the seed so same-seeded daemons draw
      // independent streams (the simulator has one Rng; a cluster has one
      // per node, which only perturbs random-forwarding choices).
      rng_(config_.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(config_.node_id)),
      start_(std::chrono::steady_clock::now()),
      health_(health_for_node(config_.health, config_.node_id)) {
  if (!config_.fault_plan.is_zero()) {
    chaos_ = std::make_unique<fault::FaultyNetwork>(config_.fault_plan);
    ADC_LOG_INFO << "adcd[" << config_.node_id
                 << "]: chaos enabled: " << config_.fault_plan.describe();
  }
  if (config_.payload.enabled) {
    store_ = std::make_shared<const store::PayloadStore>(config_.payload);
    ADC_LOG_INFO << "adcd[" << config_.node_id << "]: payload store enabled, seed="
                 << config_.payload.seed
                 << (config_.payload.erasure.enabled ? ", erasure tier on" : "");
  }
  make_node();
  if (member_ != nullptr) {
    ADC_LOG_INFO << "adcd[" << config_.node_id << "]: SWIM detector enabled, watching "
                 << member_->detector().alive_peers().size() << " peers";
  }
}

NodeDaemon::~NodeDaemon() {
  conns_.clear();
  net::close_fd(listener_);
}

void NodeDaemon::make_node() {
  const std::string name = role_name(config_.role) + "[" + std::to_string(config_.node_id) + "]";
  if (config_.role == DaemonRole::kOrigin) {
    auto origin = std::make_unique<proxy::OriginServer>(config_.node_id, name);
    if (store_ != nullptr) origin->set_sizer(store_);
    node_ = std::move(origin);
    return;
  }
  driver::ProxySpec spec;
  spec.scheme = config_.role == DaemonRole::kAdcProxy ? driver::Scheme::kAdc
                                                      : driver::Scheme::kCarp;
  spec.proxies = config_.proxy_ids;
  spec.upstream = config_.origin_id;
  spec.adc = config_.adc;
  spec.cache_capacity = config_.carp_cache_capacity;
  spec.policy = config_.carp_policy;
  spec.store = store_;
  spec.membership = config_.membership;
  driver::BuiltProxy built = driver::build_proxy(spec, config_.node_id, name);
  agent_ = built.agent;
  member_ = built.member;
  node_ = std::move(built.node);
}

std::uint16_t NodeDaemon::bind(std::string* error) {
  listener_ = net::listen_tcp(config_.listen, error);
  if (listener_ < 0) return 0;
  loop_.watch(listener_, [this](int, bool, bool) { on_listener_readable(); });
  return net::local_port(listener_);
}

void NodeDaemon::run() {
  // With the detector on, the poll timeout bounds how late a probe or
  // suspicion timeout can fire; 100ms is comfortably finer than the
  // live-scale SWIM intervals (seconds).  With frames waiting on the
  // egress bucket the timeout drops to 5ms so paced drains track the
  // configured rate instead of the poll cadence.
  const int idle_poll_ms = member_ != nullptr ? 100 : 500;
  while (!loop_.stopped()) {
    const int poll_ms = egress_q_.empty() ? idle_poll_ms : 5;
    if (loop_.poll_once(poll_ms) < 0) break;
    drain_egress();
    drive_membership();
    if (tick_) tick_();
    flush_dirty();
  }
}

void NodeDaemon::drive_membership() {
  if (member_ == nullptr) return;
  current_path_.clear();  // control traffic carries no journey path
  member_->tick(*this, now());
  const std::uint64_t epoch = member_->detector().epoch();
  if (membership_epoch_.exchange(epoch, std::memory_order_acq_rel) != epoch) {
    ADC_LOG_WARN << "adcd[" << config_.node_id << "]: membership epoch " << epoch
                 << ", peers: " << member_->detector().describe_peers();
  }
  if (const store::ErasureTier* tier = hosted_tier(); tier != nullptr) {
    restripe_backlog_.store(tier->restripe_queued(), std::memory_order_release);
  }
}

SimTime NodeDaemon::now() const noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void NodeDaemon::on_listener_readable() {
  for (;;) {
    const int fd = net::accept_tcp(listener_);
    if (fd < 0) return;
    conns_.emplace(fd, std::make_unique<net::Conn>(fd));
    loop_.watch(fd, [this](int f, bool r, bool w) { on_conn_event(f, r, w); });
  }
}

void NodeDaemon::drop_conn(int fd) {
  loop_.unwatch(fd);
  for (auto it = routes_.begin(); it != routes_.end();) {
    it = it->second == fd ? routes_.erase(it) : std::next(it);
  }
  dirty_.erase(std::remove(dirty_.begin(), dirty_.end(), fd), dirty_.end());
  conns_.erase(fd);  // closes the fd
}

void NodeDaemon::on_conn_event(int fd, bool readable, bool writable) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  net::Conn& conn = *it->second;

  if (writable) {
    const net::Conn::Io io = conn.flush();
    if (io != net::Conn::Io::kOk) {
      account_dead_conn(fd, io);
      drop_conn(fd);
      return;
    }
    if (!conn.wants_write()) loop_.request_write(fd, false);
  }
  if (!readable) return;

  const net::Conn::Io io = conn.read_some();
  net::Frame& frame = rx_;
  std::string error;
  for (;;) {
    const net::DecodeResult result = conn.next_frame(&frame, &error);
    if (result == net::DecodeResult::kNeedMore) break;
    if (result == net::DecodeResult::kCorrupt) {
      ADC_LOG_WARN << "adcd[" << config_.node_id << "]: dropping connection fd=" << fd
                   << " on corrupt frame: " << error;
      ++stats_.drops_corrupt;
      drop_conn(fd);
      return;
    }
    ++stats_.frames_in;
    if (frame.type == net::FrameType::kHello) {
      ++stats_.hellos;
      routes_[frame.hello.node_id] = fd;
      // A configured peer dialing in proves it is alive — possibly a
      // restarted daemon reconnecting.
      if (config_.peers.count(frame.hello.node_id) != 0) note_peer_up(frame.hello.node_id);
      continue;
    }
    if (sim::is_swim_kind(frame.message.msg.kind)) {
      // Failure-detector control traffic never reaches the hosted agent
      // (the wrapper routes it to its detector, which may send acks or
      // broadcasts right here).
      if (member_ != nullptr) {
        current_path_.clear();
        member_->on_message(*this, frame.message.msg);
      }
      if (conns_.find(fd) == conns_.end()) return;  // ack send dropped us
      continue;
    }
    if (!verify_body(frame.message)) continue;  // corrupt payload, frame dropped
    deliver(frame.message.msg, frame.message.path);
    if (conns_.find(fd) == conns_.end()) return;  // delivery dropped us
  }
  if (io != net::Conn::Io::kOk) {
    account_dead_conn(fd, io);
    drop_conn(fd);
  }
}

void NodeDaemon::deliver(const sim::Message& msg, const std::vector<NodeId>& path) {
  if (draining_) {
    local_.push_back(net::WireMessage{msg, path, {}, 0});
    return;
  }
  draining_ = true;
  dispatch(msg, path);
  while (!local_.empty()) {
    const net::WireMessage next = std::move(local_.front());
    local_.pop_front();
    dispatch(next.msg, next.path);
  }
  draining_ = false;
}

void NodeDaemon::dispatch(const sim::Message& msg, const std::vector<NodeId>& path) {
  // Copy into the retained capacity; `path` is current_path_ itself when
  // a send outside any delivery addressed this node.
  if (&path != &current_path_) current_path_.assign(path.begin(), path.end());
  if (current_path_.size() < net::kMaxPath) current_path_.push_back(config_.node_id);
  ++stats_.deliveries;
  node_->on_message(*this, msg);
}

void NodeDaemon::note_peer_down(NodeId peer) {
  if (!health_.record_failure(peer, now())) return;  // deeper into an existing streak
  ADC_LOG_WARN << "adcd[" << config_.node_id << "]: peer " << peer << " is down";
  if (peer == config_.origin_id) return;
  // Let the agent stop routing at the dead peer (ADC ages out its mapping
  // entries, so lookups fall back to random forwarding).
  if (agent_ != nullptr) agent_->on_peer_unreachable(peer);
  // Transport-level evidence short-circuits the probe cycle: suspect the
  // peer now instead of waiting for its next scheduled ping to time out.
  if (member_ != nullptr) member_->detector().observe_failure(*this, peer, now());
}

void NodeDaemon::note_peer_up(NodeId peer) {
  if (member_ != nullptr && peer != config_.origin_id) {
    member_->detector().observe_alive(peer);
  }
  if (!health_.record_success(peer)) return;  // was not down
  ++fault_stats_.reconnects;
  ADC_LOG_INFO << "adcd[" << config_.node_id << "]: peer " << peer << " reconnected";
}

void NodeDaemon::account_dead_conn(int fd, net::Conn::Io io) {
  if (io == net::Conn::Io::kClosed) {
    ++stats_.peer_closes;
  } else {
    ++stats_.peer_resets;
  }
  // An orderly close is not a failure signal (daemons close on shutdown,
  // clients when their run ends); resets and errors are.
  if (io == net::Conn::Io::kClosed) return;
  for (const auto& [id, route_fd] : routes_) {
    if (route_fd == fd && config_.peers.count(id) != 0) note_peer_down(id);
  }
}

int NodeDaemon::fd_for(NodeId id) {
  if (const auto it = routes_.find(id); it != routes_.end()) return it->second;
  const auto peer = config_.peers.find(id);
  if (peer == config_.peers.end()) return -1;

  int fd = -1;
  std::string error;
  if (dialed_before_.insert(id).second) {
    // First-ever dial: tolerate cluster startup ordering — peers launched
    // moments after us are worth a few seconds of retries before the
    // message is dropped.
    for (int attempt = 0; attempt < 100; ++attempt) {
      fd = net::connect_tcp(peer->second, &error);
      if (fd >= 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (fd < 0) {
      ADC_LOG_WARN << "adcd[" << config_.node_id << "]: cannot reach peer " << id << ": "
                   << error;
      note_peer_down(id);
      return -1;
    }
  } else {
    // Redial of a previously reached peer: one non-blocking attempt under
    // the capped-exponential-backoff schedule, so a dead peer costs one
    // connect() per backoff window instead of a 5-second stall per send.
    if (!health_.can_attempt(id, now())) return -1;
    if (health_.is_down(id)) ++fault_stats_.retries;
    fd = net::connect_tcp(peer->second, &error);
    if (fd < 0) {
      note_peer_down(id);
      return -1;
    }
  }
  note_peer_up(id);
  conns_.emplace(fd, std::make_unique<net::Conn>(fd));
  routes_[id] = fd;
  loop_.watch(fd, [this](int f, bool r, bool w) { on_conn_event(f, r, w); });
  std::vector<std::uint8_t> hello;
  net::encode_hello(net::Hello{config_.node_id,
                               config_.role == DaemonRole::kOrigin ? sim::NodeKind::kOrigin
                                                                   : sim::NodeKind::kProxy},
                    &hello);
  conn_to_fill(fd).queue(hello);
  return fd;
}

net::Conn& NodeDaemon::conn_to_fill(int fd) {
  net::Conn& conn = *conns_.at(fd);
  // Output already pending means the connection is listed for this
  // round's flush or waiting for write readiness; either drains it.
  if (!conn.wants_write()) dirty_.push_back(fd);
  return conn;
}

void NodeDaemon::flush_dirty() {
  // A failed flush drops its connection, and the peer-down accounting may
  // send (a SWIM suspicion); those frames list their connections anew, so
  // repeat until a pass queues nothing.
  while (!dirty_.empty()) {
    flushing_.swap(dirty_);
    for (const int fd : flushing_) {
      const auto it = conns_.find(fd);
      if (it != conns_.end()) flush_conn(fd, *it->second);
    }
    flushing_.clear();
  }
}

void NodeDaemon::flush_conn(int fd, net::Conn& conn) {
  const net::Conn::Io io = conn.flush();
  if (io != net::Conn::Io::kOk) {
    account_dead_conn(fd, io);
    drop_conn(fd);
    return;
  }
  loop_.request_write(fd, conn.wants_write());
}

void NodeDaemon::send(sim::Message msg) {
  // Mirror Simulator::send(): every transfer costs exactly one hop, self
  // deliveries included.
  msg.hops += 1;

  // Chaos injection mirrors the simulator's hook placement: after hop
  // accounting, before routing.  Live chaos is drop/duplicate only; the
  // event loop keeps no timers, so extra-delay faults have no effect here.
  int duplicates = 0;
  if (chaos_ != nullptr) {
    const sim::FaultDecision fate = chaos_->on_send(msg, now());
    if (fate.drop) return;
    duplicates = fate.duplicates;
  }

  if (msg.target == config_.node_id) {
    for (int copy = 0; copy <= duplicates; ++copy) deliver(msg, current_path_);
    return;
  }

  int fd = fd_for(msg.target);
  if (fd < 0 && msg.kind == sim::MessageKind::kRequest &&
      msg.target != config_.origin_id) {
    // Graceful degradation: the forwarding target is down, so resolve at
    // the origin instead of dropping the search.  The origin replies to
    // this node (msg.sender stays intact), which backwards it normally.
    const int origin_fd = fd_for(config_.origin_id);
    if (origin_fd >= 0) {
      ++fault_stats_.degraded_fetches;
      ADC_LOG_INFO << "adcd[" << config_.node_id << "]: peer " << msg.target
                   << " unreachable; degrading req=" << msg.request_id << " to origin fetch";
      msg.target = config_.origin_id;
      fd = origin_fd;
    }
  }
  if (fd < 0) {
    ++stats_.drops_unroutable;
    if (!sim::is_swim_kind(msg.kind) && !sim::is_repair_kind(msg.kind)) {
      // Control traffic to a down peer is routine while the detector is
      // still confirming the death — not worth a warning per probe.
      ADC_LOG_WARN << "adcd[" << config_.node_id << "]: no route to node " << msg.target
                   << "; dropping "
                   << (msg.kind == sim::MessageKind::kRequest ? "REQUEST" : "REPLY")
                   << " req=" << msg.request_id;
    }
    return;
  }
  // One reused frame: its path and body keep their capacity across sends.
  tx_.msg = msg;
  tx_.path = current_path_;
  tx_.body.clear();
  tx_.checksum = 0;
  materialize_body(tx_);

  // A frame's accounted cost is the larger of its wire size and its
  // payload_bytes: the body on the wire is only a bounded sample, so
  // charging wire bytes alone would let a 256 KiB object slip through the
  // bucket for the price of one frame.  This keeps the live ceiling
  // comparable to the simulator's link model and the loadgen's bytes/s.
  const auto cost_of = [&msg](std::size_t frame_bytes) {
    return std::max<std::uint64_t>(frame_bytes, msg.payload_bytes);
  };
  const bool pace = config_.egress_bytes_per_sec > 0 && !sim::is_swim_kind(msg.kind);
  for (int copy = 0; copy <= duplicates; ++copy) {
    if (!pace) {
      const std::size_t frame_bytes = conn_to_fill(fd).queue_message(tx_);
      count_frame_out(msg.target, cost_of(frame_bytes));
      continue;
    }
    PendingFrame frame{msg.target, {}, 0};
    net::encode_message(tx_, &frame.bytes);
    frame.cost = cost_of(frame.bytes.size());
    egress_refill();
    // FIFO: once anything waits, everything paced waits behind it.
    if (!egress_q_.empty() || egress_tokens_ < 0.0) {
      egress_queued_bytes_ += frame.cost;
      ++stats_.egress_paced_frames;
      stats_.egress_paced_bytes += frame.cost;
      egress_q_.push_back(std::move(frame));
      continue;
    }
    // Debt semantics: a frame goes out whenever the bucket is
    // non-negative and may overdraw it, so frames larger than the
    // bucket capacity still pass (and repay before the next one).
    egress_tokens_ -= static_cast<double>(frame.cost);
    queue_to_wire(fd, frame);
  }
}

std::uint64_t NodeDaemon::egress_burst() const noexcept {
  if (config_.egress_burst_bytes > 0) return config_.egress_burst_bytes;
  return std::max<std::uint64_t>(config_.egress_bytes_per_sec / 20, 8 * 1024);
}

void NodeDaemon::egress_refill() {
  const SimTime t = now();
  const double dt = static_cast<double>(t - egress_last_refill_) / 1e6;
  egress_last_refill_ = t;
  egress_tokens_ =
      std::min(egress_tokens_ + dt * static_cast<double>(config_.egress_bytes_per_sec),
               static_cast<double>(egress_burst()));
}

void NodeDaemon::queue_to_wire(int fd, const PendingFrame& frame) {
  conn_to_fill(fd).queue(frame.bytes);
  count_frame_out(frame.target, frame.cost);
}

void NodeDaemon::count_frame_out(NodeId target, std::uint64_t cost) {
  ++stats_.frames_out;
  peer_bytes_out_[target] += cost;
}

void NodeDaemon::drain_egress() {
  if (egress_q_.empty()) return;
  egress_refill();
  while (!egress_q_.empty() && egress_tokens_ >= 0.0) {
    PendingFrame frame = std::move(egress_q_.front());
    egress_q_.pop_front();
    egress_queued_bytes_ -= frame.cost;
    // Re-resolve the route: the peer may have died while the frame waited.
    const int fd = fd_for(frame.target);
    if (fd < 0) {
      ++stats_.drops_unroutable;
      ++stats_.egress_dropped_frames;
      continue;
    }
    egress_tokens_ -= static_cast<double>(frame.cost);
    queue_to_wire(fd, frame);
  }
}

void NodeDaemon::materialize_body(net::WireMessage& wire) {
  if (store_ == nullptr || wire.msg.payload_bytes == 0) return;
  const bool chunk = wire.msg.kind == sim::MessageKind::kChunkReply;
  const bool restripe = wire.msg.kind == sim::MessageKind::kRestripeOffer;
  if (wire.msg.kind != sim::MessageKind::kReply && !chunk && !restripe) return;
  wire.body.resize(static_cast<std::size_t>(
      std::min<std::uint64_t>(wire.msg.payload_bytes, store::kMaxBodySample)));
  // A chunk reply's resolver field carries the stripe chunk index; the
  // body is genuine chunk bytes (pattern slice or real RDP parity).  A
  // re-stripe offer carries the *reconstructed* chunk — the repair leader
  // rebuilds the dead peer's chunk by RDP equation peeling over the other
  // k + 1, so every live repair exercises the erasure math end to end
  // (the receiver verifies the sample against its own fill_chunk).
  std::size_t n = 0;
  if (restripe) {
    n = store_->reconstruct_chunk(wire.msg.object, static_cast<int>(wire.msg.resolver),
                                  wire.body.data(), wire.body.size());
  } else if (chunk) {
    n = store_->fill_chunk(wire.msg.object, static_cast<int>(wire.msg.resolver),
                           wire.body.data(), wire.body.size());
  } else {
    n = store_->fill_body(wire.msg.object, wire.body.data(), wire.body.size());
  }
  wire.body.resize(n);
  wire.checksum = store_->checksum(wire.msg.object, wire.msg.payload_bytes,
                                   wire.body.data(), wire.body.size());
  stats_.payload_bytes_out += wire.msg.payload_bytes;
}

bool NodeDaemon::verify_body(const net::WireMessage& wire) {
  if (store_ == nullptr) return true;
  const sim::Message& msg = wire.msg;
  // A re-stripe offer's body is the leader's *reconstructed* chunk;
  // verify_chunk regenerates the same bytes directly, so any peeling bug
  // surfaces as a verification failure at the replacement.
  const bool chunk = msg.kind == sim::MessageKind::kChunkReply ||
                     msg.kind == sim::MessageKind::kRestripeOffer;
  if (msg.kind != sim::MessageKind::kReply && !chunk) return true;
  if (msg.payload_bytes == 0) return true;  // reply from a store-unaware sender
  bool ok = !wire.body.empty();  // a nonzero payload always carries a sample
  if (ok && chunk) {
    ok = store_->verify_chunk(msg.object, static_cast<int>(msg.resolver), msg.payload_bytes,
                              wire.body.data(), wire.body.size(), wire.checksum);
  } else if (ok) {
    ok = store_->verify_body(msg.object, msg.payload_bytes, wire.body.data(),
                             wire.body.size(), wire.checksum);
  }
  if (!ok) {
    ++stats_.body_verify_failures;
    ADC_LOG_WARN << "adcd[" << config_.node_id << "]: payload verification failed for "
                 << (chunk ? "chunk" : "body") << " of object " << msg.object << " req="
                 << msg.request_id << " (" << msg.payload_bytes << " bytes claimed, "
                 << wire.body.size() << "-byte sample); dropping frame";
    return false;
  }
  ++stats_.bodies_verified;
  stats_.payload_bytes_in += msg.payload_bytes;
  peer_bytes_in_[msg.sender] += msg.payload_bytes;
  return true;
}

sim::FaultCounters NodeDaemon::fault_stats() const {
  sim::FaultCounters merged = fault_stats_;
  if (agent_ != nullptr) merged.entries_invalidated = agent_->snapshot(false).entries_invalidated;
  if (chaos_ != nullptr) {
    const sim::FaultCounters& injected = chaos_->counters();
    merged.drops_random = injected.drops_random;
    merged.drops_partition = injected.drops_partition;
    merged.drops_crash = injected.drops_crash;
    merged.duplicates = injected.duplicates;
    merged.delays = injected.delays;
  }
  return merged;
}

std::string NodeDaemon::stats_text() const {
  std::string out = "adcd node " + std::to_string(config_.node_id) + " (" +
                    role_name(config_.role) + ")\n";
  out += "  frames_in=" + std::to_string(stats_.frames_in) +
         " frames_out=" + std::to_string(stats_.frames_out) +
         " deliveries=" + std::to_string(stats_.deliveries) +
         " hellos=" + std::to_string(stats_.hellos) + "\n";
  out += "  drops_unroutable=" + std::to_string(stats_.drops_unroutable) +
         " drops_corrupt=" + std::to_string(stats_.drops_corrupt) +
         " peer_resets=" + std::to_string(stats_.peer_resets) +
         " peer_closes=" + std::to_string(stats_.peer_closes) + "\n";
  out += "  faults: " + fault_stats().text() + "\n";
  if (store_ != nullptr) {
    out += "  payload: bytes_out=" + std::to_string(stats_.payload_bytes_out) +
           " bytes_in=" + std::to_string(stats_.payload_bytes_in) +
           " bodies_verified=" + std::to_string(stats_.bodies_verified) +
           " verify_failures=" + std::to_string(stats_.body_verify_failures) + "\n";
  }
  if (config_.egress_bytes_per_sec > 0) {
    out += "  egress: rate=" + std::to_string(config_.egress_bytes_per_sec) +
           " burst=" + std::to_string(egress_burst()) +
           " tokens=" + std::to_string(static_cast<long long>(egress_tokens_)) +
           " queue_frames=" + std::to_string(egress_q_.size()) +
           " queue_bytes=" + std::to_string(egress_queued_bytes_) +
           " paced_frames=" + std::to_string(stats_.egress_paced_frames) +
           " paced_bytes=" + std::to_string(stats_.egress_paced_bytes) +
           " dropped=" + std::to_string(stats_.egress_dropped_frames) + "\n";
  }
  if (!peer_bytes_out_.empty() || !peer_bytes_in_.empty()) {
    out += "  peer_bytes:";
    // Union of both maps, in peer order (both are std::map).
    std::map<NodeId, std::pair<std::uint64_t, std::uint64_t>> merged;
    for (const auto& [peer, bytes] : peer_bytes_out_) merged[peer].first = bytes;
    for (const auto& [peer, bytes] : peer_bytes_in_) merged[peer].second = bytes;
    for (const auto& [peer, io] : merged) {
      out += " " + std::to_string(peer) + ":out=" + std::to_string(io.first) +
             ",in=" + std::to_string(io.second);
    }
    out += "\n";
  }
  const std::vector<NodeId> down = health_.down_peers();
  if (!down.empty()) {
    out += "  down_peers:";
    for (const NodeId peer : down) out += " " + std::to_string(peer);
    out += "\n";
  }
  if (member_ != nullptr) {
    const membership::SwimDetector& detector = member_->detector();
    const membership::SwimStats& swim = detector.stats();
    out += "  membership_epoch=" + std::to_string(detector.epoch()) +
           " incarnation=" + std::to_string(detector.self_incarnation()) +
           " peers: " + detector.describe_peers() + "\n";
    out += "  swim: pings_sent=" + std::to_string(swim.pings_sent) +
           " acks_sent=" + std::to_string(swim.acks_sent) +
           " ping_reqs_sent=" + std::to_string(swim.ping_reqs_sent) +
           " relayed_probes=" + std::to_string(swim.relayed_probes) +
           " suspicions=" + std::to_string(swim.suspicions) +
           " refutations=" + std::to_string(swim.refutations) +
           " deaths=" + std::to_string(swim.deaths) +
           " joins=" + std::to_string(swim.joins) +
           " repair_rounds=" + std::to_string(member_->repair().rounds_fired()) + "\n";
  }
  if (const store::ErasureTier* tier = hosted_tier();
      tier != nullptr && tier->restripe_enabled()) {
    const store::RestripeStats& r = tier->restripe_stats();
    const store::ErasureStats& es = tier->stats();
    out += "  restripe: stripes_healed=" + std::to_string(es.stripes_healed) +
           " adopted=" + std::to_string(es.restripe_adopted) +
           " handbacks=" + std::to_string(es.restripe_handbacks) +
           " offers=" + std::to_string(r.offers_sent) +
           " retries=" + std::to_string(r.retries) +
           " rounds=" + std::to_string(r.rounds) + "\n";
    out += "  restripe: repair_bytes=" + std::to_string(r.repair_bytes) +
           " round_bytes_max=" + std::to_string(r.round_bytes_max) +
           " queued=" + std::to_string(tier->restripe_queued()) +
           " abandoned=" + std::to_string(r.items_abandoned) +
           " cancelled=" + std::to_string(r.items_cancelled) + "\n";
  }
  switch (config_.role) {
    case DaemonRole::kAdcProxy: {
      const auto& stats = static_cast<const core::AdcProxy&>(hosted()).stats();
      out += "  requests_received=" + std::to_string(stats.requests_received) +
             " local_hits=" + std::to_string(stats.local_hits) +
             " forwards_learned=" + std::to_string(stats.forwards_learned) +
             " forwards_random=" + std::to_string(stats.forwards_random) +
             " forwards_origin=" + std::to_string(stats.forwards_origin) + "\n";
      out += "  loops_detected=" + std::to_string(stats.loops_detected) +
             " replies_relayed=" + std::to_string(stats.replies_relayed) +
             " resolver_claims=" + std::to_string(stats.resolver_claims) +
             " cache_admissions=" + std::to_string(stats.cache_admissions) +
             " orphan_replies=" + std::to_string(stats.orphan_replies) + "\n";
      if (store_ != nullptr) {
        out += "  store: payload_bytes_served=" + std::to_string(stats.payload_bytes_served) +
               " payload_bytes_fetched=" + std::to_string(stats.payload_bytes_fetched) +
               " degraded_started=" + std::to_string(stats.degraded_reads_started) +
               " degraded_served=" + std::to_string(stats.degraded_reads_served) + "\n";
      }
      break;
    }
    case DaemonRole::kCarpProxy: {
      const auto& stats = static_cast<const proxy::HashingProxy&>(hosted()).stats();
      out += "  requests_received=" + std::to_string(stats.requests_received) +
             " local_hits=" + std::to_string(stats.local_hits) +
             " forwards_to_owner=" + std::to_string(stats.forwards_to_owner) +
             " forwards_to_origin=" + std::to_string(stats.forwards_to_origin) + "\n";
      if (store_ != nullptr) {
        out += "  store: payload_bytes_served=" + std::to_string(stats.payload_bytes_served) +
               " payload_bytes_fetched=" + std::to_string(stats.payload_bytes_fetched) +
               " degraded_served=" + std::to_string(stats.degraded_reads_served) + "\n";
      }
      break;
    }
    case DaemonRole::kOrigin: {
      const auto& origin = static_cast<const proxy::OriginServer&>(hosted());
      out += "  requests_served=" + std::to_string(origin.requests_served());
      if (store_ != nullptr) {
        out += " bytes_served=" + std::to_string(origin.bytes_served());
      }
      out += "\n";
      break;
    }
  }
  return out;
}

}  // namespace adc::server
