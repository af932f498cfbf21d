#include "server/loadgen.h"

#include <chrono>
#include <limits>
#include <sstream>
#include <thread>

#include "util/logging.h"

namespace adc::server {
namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string LoadGenErrors::text() const {
  std::ostringstream out;
  out << "connect_refused=" << connect_refused << " peer_resets=" << peer_resets
      << " orderly_closes=" << orderly_closes << " write_errors=" << write_errors
      << " corrupt_frames=" << corrupt_frames << " reconnects=" << reconnects;
  return out.str();
}

double LoadGenReport::entry_fairness() const noexcept {
  std::vector<std::uint64_t> counts;
  counts.reserve(entry_requests.size());
  for (const auto& [entry, count] : entry_requests) counts.push_back(count);
  return sim::MetricsSummary::fairness_ratio(counts);
}

std::string LoadGenReport::text() const {
  std::ostringstream out;
  out << "requests:   " << completed << " completed / " << failed << " failed / " << issued
      << " issued" << (timed_out ? "  [TIMED OUT]" : "") << "\n";
  out << "hit rate:   " << hit_rate() << "\n";
  if (failed > 0) out << "failure:    " << failure_rate() << "\n";
  if (duplicate_replies > 0) out << "dup replies: " << duplicate_replies << "\n";
  out << "mean hops:  " << mean_hops() << "\n";
  out << "throughput: " << throughput() << " req/s (" << wall_seconds << " s)\n";
  if (bytes_completed > 0) {
    out << "payload:    " << bytes_completed << " bytes, byte_hit_rate=" << byte_hit_rate()
        << ", " << bytes_per_second() << " B/s";
    if (degraded_reads > 0) {
      out << ", degraded=" << degraded_reads << " (" << bytes_recovered << " bytes recovered)";
    }
    out << "\n";
  }
  if (stripes_healed > 0 || repair_bytes > 0 || repair_rounds > 0) {
    out << "restripe:   healed=" << stripes_healed << " bytes=" << repair_bytes
        << " rounds=" << repair_rounds << "\n";
  }
  out << "latency:    p50=" << latency_p50_us << "us p95=" << latency_p95_us
      << "us p99=" << latency_p99_us << "us p99.9=" << latency_p999_us << "us\n";
  if (!entry_requests.empty()) {
    out << "entries:    fairness=" << entry_fairness() << " requests:";
    for (const auto& [entry, count] : entry_requests) out << " " << entry << ":" << count;
    out << "\n";
  }
  if (!entry_bytes.empty()) {
    out << "entry bytes:";
    for (const auto& [entry, bytes] : entry_bytes) out << " " << entry << ":" << bytes;
    out << "\n";
  }
  out << "conn errors: " << errors.text() << "\n";
  out << "membership: view_epoch=" << view_epoch << " entries:";
  for (const EntryView& view : entry_views) {
    out << " " << view.entry << ":" << view.state();
    if (view.failure_streak > 0) out << "/" << view.failure_streak;
  }
  out << "\n";
  return out.str();
}

std::string LoadGenReport::json(std::string_view workload) const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"workload\": \"" << workload << "\",\n";
  out << "  \"issued\": " << issued << ",\n";
  out << "  \"completed\": " << completed << ",\n";
  out << "  \"failed\": " << failed << ",\n";
  out << "  \"timed_out\": " << (timed_out ? "true" : "false") << ",\n";
  out << "  \"hit_rate\": " << hit_rate() << ",\n";
  out << "  \"mean_hops\": " << mean_hops() << ",\n";
  out << "  \"throughput_rps\": " << throughput() << ",\n";
  out << "  \"wall_seconds\": " << wall_seconds << ",\n";
  out << "  \"bytes_completed\": " << bytes_completed << ",\n";
  out << "  \"bytes_hit\": " << bytes_hit << ",\n";
  out << "  \"bytes_recovered\": " << bytes_recovered << ",\n";
  out << "  \"degraded_reads\": " << degraded_reads << ",\n";
  out << "  \"byte_hit_rate\": " << byte_hit_rate() << ",\n";
  out << "  \"bytes_per_second\": " << bytes_per_second() << ",\n";
  out << "  \"latency_us\": {\"p50\": " << latency_p50_us << ", \"p95\": " << latency_p95_us
      << ", \"p99\": " << latency_p99_us << ", \"p999\": " << latency_p999_us << "},\n";
  out << "  \"entry_fairness\": " << entry_fairness() << ",\n";
  out << "  \"entry_requests\": {";
  bool first = true;
  for (const auto& [entry, count] : entry_requests) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << entry << "\": " << count;
  }
  out << "},\n";
  out << "  \"entry_bytes\": {";
  first = true;
  for (const auto& [entry, bytes] : entry_bytes) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << entry << "\": " << bytes;
  }
  out << "},\n";
  out << "  \"entry_bytes_per_second\": {";
  first = true;
  for (const auto& [entry, bytes] : entry_bytes) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << entry << "\": "
        << (wall_seconds <= 0.0 ? 0.0 : static_cast<double>(bytes) / wall_seconds);
  }
  out << "},\n";
  out << "  \"view_epoch\": " << view_epoch << ",\n";
  out << "  \"stripes_healed\": " << stripes_healed << ",\n";
  out << "  \"repair_bytes\": " << repair_bytes << ",\n";
  out << "  \"repair_rounds\": " << repair_rounds << ",\n";
  out << "  \"conn_failures\": " << errors.total_conn_failures() << "\n";
  out << "}\n";
  return out.str();
}

LoadGenerator::LoadGenerator(LoadGenConfig config)
    : config_(std::move(config)), rng_(config_.seed), health_(config_.health) {
  for (const auto& [id, endpoint] : config_.proxies) entries_.push_back(id);
}

LoadGenerator::~LoadGenerator() = default;

bool LoadGenerator::connect(std::string* error) {
  for (const auto& [id, endpoint] : config_.proxies) {
    int fd = -1;
    std::string last_error;
    for (int attempt = 0; attempt < 100; ++attempt) {
      fd = net::connect_tcp(endpoint, &last_error);
      if (fd >= 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (fd < 0) {
      if (error) {
        *error = "cannot connect to proxy " + std::to_string(id) + " at " + endpoint.host + ":" +
                 std::to_string(endpoint.port) + ": " + last_error;
      }
      return false;
    }
    auto conn = std::make_unique<net::Conn>(fd);
    std::vector<std::uint8_t> hello;
    net::encode_hello(net::Hello{config_.client_id, sim::NodeKind::kClient}, &hello);
    conn->queue(hello);
    if (conn->flush() != net::Conn::Io::kOk) {
      if (error) *error = "HELLO to proxy " + std::to_string(id) + " failed";
      return false;
    }
    routes_[id] = fd;
    conns_.emplace(fd, std::move(conn));
    loop_.watch(fd, [this](int f, bool r, bool w) { on_conn_event(f, r, w); });
  }
  return true;
}

NodeId LoadGenerator::pick_entry() {
  if (config_.entry == EntryChoice::kRoundRobin) {
    const NodeId entry = entries_[cursor_];
    cursor_ = (cursor_ + 1) % entries_.size();
    return entry;
  }
  return entries_[rng_.index(entries_.size())];
}

int LoadGenerator::entry_fd(NodeId entry) {
  if (const auto it = routes_.find(entry); it != routes_.end()) return it->second;
  if (!health_.can_attempt(entry, now_us())) return -1;

  const net::Endpoint& endpoint = config_.proxies.at(entry);
  std::string error;
  const int fd = net::connect_tcp(endpoint, &error);
  if (fd < 0) {
    ++errors_.connect_refused;
    if (health_.record_failure(entry, now_us())) ++view_epoch_;
    return -1;
  }
  auto conn = std::make_unique<net::Conn>(fd);
  std::vector<std::uint8_t> hello;
  net::encode_hello(net::Hello{config_.client_id, sim::NodeKind::kClient}, &hello);
  conn->queue(hello);
  if (conn->flush() != net::Conn::Io::kOk) {
    ++errors_.connect_refused;
    if (health_.record_failure(entry, now_us())) ++view_epoch_;
    return -1;  // conn's destructor closes the fd
  }
  if (health_.record_success(entry)) {
    ++view_epoch_;
    ++errors_.reconnects;
    ADC_LOG_INFO << "loadgen: entry proxy " << entry << " reconnected";
  }
  routes_[entry] = fd;
  conns_.emplace(fd, std::move(conn));
  loop_.watch(fd, [this](int f, bool r, bool w) { on_conn_event(f, r, w); });
  return fd;
}

bool LoadGenerator::issue_next() {
  if (objects_ == nullptr || next_index_ >= objects_->size()) return false;

  // One try per configured entry: the preferred pick first, then the rest,
  // so a single dead proxy degrades throughput instead of stopping the run.
  int fd = -1;
  NodeId target = kInvalidNode;
  for (std::size_t attempt = 0; attempt < entries_.size(); ++attempt) {
    const NodeId candidate = pick_entry();
    fd = entry_fd(candidate);
    if (fd >= 0) {
      target = candidate;
      break;
    }
  }
  if (fd < 0) return false;  // every entry down; retry next poll round

  sim::Message request;
  request.kind = sim::MessageKind::kRequest;
  request.request_id = make_request_id(config_.client_id, lifetime_issued_++);
  request.object = (*objects_)[next_index_++];
  request.sender = config_.client_id;
  request.target = target;
  request.client = config_.client_id;
  request.forward_count = 0;
  // The client-to-entry transfer counts one hop, exactly as
  // Simulator::send() charges it when proxy::Client injects.
  request.hops = 1;
  request.issued_at = now_us();
  ++issued_;
  ++entry_requests_[target];
  outstanding_.emplace(
      request.request_id,
      Outstanding{config_.request_timeout_ms > 0
                      ? request.issued_at + std::int64_t{config_.request_timeout_ms} * 1000
                      : std::numeric_limits<std::int64_t>::max(),
                  target});

  net::WireMessage wire;
  wire.msg = request;
  net::Conn& conn = *conns_.at(fd);
  conn.queue_message(wire);
  const net::Conn::Io io = conn.flush();
  if (io != net::Conn::Io::kOk) {
    if (io == net::Conn::Io::kError) ++errors_.write_errors;
    conn_died(fd, io);
    return true;  // the request is in flight bookkeeping-wise; it will expire
  }
  if (conn.wants_write()) loop_.request_write(fd, true);
  return true;
}

void LoadGenerator::expire_overdue() {
  if (config_.request_timeout_ms <= 0 || outstanding_.empty()) return;
  const std::int64_t now = now_us();
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    if (it->second.deadline <= now) {
      it = outstanding_.erase(it);
      ++failed_requests_;
    } else {
      ++it;
    }
  }
}

void LoadGenerator::on_reply(const sim::Message& msg) {
  if (msg.kind != sim::MessageKind::kReply || msg.client != config_.client_id) {
    ADC_LOG_WARN << "loadgen: unexpected message for node " << msg.client;
    return;
  }
  const auto it = outstanding_.find(msg.request_id);
  if (it == outstanding_.end()) {
    // Chaos duplicated the reply, or it lost the race against its
    // deadline; either way this request already resolved.
    ++duplicate_replies_;
    return;
  }
  const NodeId entry = it->second.entry;
  outstanding_.erase(it);
  ++completed_;
  if (msg.proxy_hit) ++hits_;
  total_hops_ += static_cast<std::uint64_t>(msg.hops);
  bytes_completed_ += msg.payload_bytes;
  if (msg.payload_bytes > 0) entry_bytes_[entry] += msg.payload_bytes;
  if (msg.proxy_hit) bytes_hit_ += msg.payload_bytes;
  if (msg.degraded) {
    ++degraded_reads_;
    bytes_recovered_ += msg.payload_bytes;
  }
  latency_us_.add(now_us() - msg.issued_at);
}

void LoadGenerator::conn_died(int fd, net::Conn::Io io) {
  switch (io) {
    case net::Conn::Io::kClosed:
      ++errors_.orderly_closes;
      break;
    case net::Conn::Io::kReset:
      ++errors_.peer_resets;
      break;
    default:
      break;  // kError call sites count write_errors/corrupt themselves
  }
  for (auto it = routes_.begin(); it != routes_.end();) {
    if (it->second == fd) {
      // An orderly close is still a down signal for a client: the proxy
      // went away and must be redialed before it can serve us again.
      if (health_.record_failure(it->first, now_us())) ++view_epoch_;
      ADC_LOG_WARN << "loadgen: lost connection to entry proxy " << it->first;
      it = routes_.erase(it);
    } else {
      ++it;
    }
  }
  loop_.unwatch(fd);
  conns_.erase(fd);  // closes the fd
}

void LoadGenerator::on_conn_event(int fd, bool readable, bool writable) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  net::Conn& conn = *it->second;

  if (writable) {
    const net::Conn::Io io = conn.flush();
    if (io != net::Conn::Io::kOk) {
      if (io == net::Conn::Io::kError) ++errors_.write_errors;
      conn_died(fd, io);
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
      ADC_LOG_WARN << "loadgen: corrupt frame from fd=" << fd << ": " << error;
      ++errors_.corrupt_frames;
      conn_died(fd, net::Conn::Io::kError);
      return;
    }
    if (frame.type == net::FrameType::kHello) continue;
    on_reply(frame.message.msg);
  }
  if (io != net::Conn::Io::kOk) conn_died(fd, io);
}

LoadGenReport LoadGenerator::run(const std::vector<ObjectId>& objects) {
  objects_ = &objects;
  next_index_ = 0;
  issued_ = 0;
  completed_ = 0;
  failed_requests_ = 0;
  duplicate_replies_ = 0;
  hits_ = 0;
  total_hops_ = 0;
  bytes_completed_ = 0;
  bytes_hit_ = 0;
  bytes_recovered_ = 0;
  degraded_reads_ = 0;
  entry_requests_.clear();
  entry_bytes_.clear();
  latency_us_.clear();
  errors_ = LoadGenErrors{};
  view_epoch_ = 0;
  outstanding_.clear();
  const auto wall_start = std::chrono::steady_clock::now();

  std::uint64_t last_resolved = 0;
  auto last_progress = wall_start;
  bool timed_out = false;
  for (;;) {
    // Top up the closed loop; issue_next() returning false means either
    // the trace is exhausted or every entry is in backoff right now.
    while (outstanding_.size() < static_cast<std::size_t>(config_.concurrency)) {
      if (!issue_next()) break;
    }
    if (next_index_ >= objects.size() && outstanding_.empty()) break;

    loop_.poll_once(100);
    expire_overdue();

    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t resolved = completed_ + failed_requests_;
    if (resolved != last_resolved) {
      last_resolved = resolved;
      last_progress = now;
    } else if (config_.idle_timeout_ms > 0 &&
               now - last_progress > std::chrono::milliseconds(config_.idle_timeout_ms)) {
      ADC_LOG_WARN << "loadgen: no progress for " << config_.idle_timeout_ms << "ms; aborting";
      timed_out = true;
      break;
    }
  }
  const auto wall_end = std::chrono::steady_clock::now();

  LoadGenReport report;
  report.issued = issued_;
  report.completed = completed_;
  report.failed = failed_requests_;
  report.duplicate_replies = duplicate_replies_;
  report.hits = hits_;
  report.total_hops = total_hops_;
  report.bytes_completed = bytes_completed_;
  report.bytes_hit = bytes_hit_;
  report.bytes_recovered = bytes_recovered_;
  report.degraded_reads = degraded_reads_;
  report.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  report.latency_p50_us = latency_us_.percentile(0.50);
  report.latency_p95_us = latency_us_.percentile(0.95);
  report.latency_p99_us = latency_us_.percentile(0.99);
  report.latency_p999_us = latency_us_.percentile(0.999);
  report.timed_out = timed_out;
  report.errors = errors_;
  report.entry_requests = entry_requests_;
  report.entry_bytes = entry_bytes_;
  for (const NodeId entry : entries_) {
    report.entry_views.push_back(EntryView{entry, health_.failure_streak(entry)});
  }
  report.view_epoch = view_epoch_;
  return report;
}

}  // namespace adc::server
