// The three benchmark workloads.  Each generates its trace from the seed,
// replays it for the measured window and records one Fields row per
// replay; in trace mode it runs a second, traced window of the same length
// so run.py can report the tracing overhead and compare outputs.
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_common.h"
#include "core/adc_proxy.h"
#include "perfbench.h"
#include "server/daemon.h"
#include "server/loadgen.h"
#include "workload/polygraph.h"

namespace adc::perfbench {
namespace {

constexpr std::string_view kSimAdcPaper = "sim-adc-paper";
constexpr std::string_view kSimCarpCrash = "sim-carp-erasure-crash";
constexpr std::string_view kLiveAdc = "live-adc-loopback";

/// Trace scale of the sim workloads (399k requests) and of the live one.
constexpr double kSimScale = 0.1;
constexpr double kLiveScale = 0.01;

/// Traces generated per run; setup reports their median.  The first few
/// generations of a process run slower while the heap grows, so the median
/// needs enough of the steady ones.
constexpr int kTraceGenerations = 21;

/// Each measured window holds at least this many replays.
constexpr int kMinReplays = 3;

// sim-carp-erasure-crash deployment.
constexpr int kCrashProxies = 8;
constexpr NodeId kCrashVictim = 3;
constexpr SimTime kCrashAt = 400000;
constexpr SimTime kCrashRequestTimeout = 2000;
constexpr std::uint64_t kOriginEgress = 8ULL << 20;   // bytes/s
constexpr std::uint64_t kProxyByteBudget = 4ULL << 20;
constexpr int kCrashClients = 16;

// live-adc-loopback deployment: run_experiment's node layout.
constexpr int kLiveProxies = 5;
constexpr NodeId kLiveOrigin = 5;
constexpr NodeId kLiveClient = 6;
constexpr int kLiveConcurrency = 4;

double thread_cpu_seconds(pthread_t thread) {
  clockid_t clock = 0;
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0.0;
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double self_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

workload::Trace generate_trace(double scale, std::uint64_t seed, SpanRecorder& spans,
                               std::vector<double>* times) {
  workload::Trace trace;
  for (int i = 0; i < kTraceGenerations; ++i) {
    auto config = workload::PolygraphConfig::scaled(scale);
    config.seed = seed;
    ScopedSpan span(spans, "workload.generate_polygraph_trace");
    const auto start = std::chrono::steady_clock::now();
    trace = workload::generate_polygraph_trace(config);
    times->push_back(seconds_since(start));
    span.set_count(trace.size());
  }
  return trace;
}

driver::ExperimentConfig adc_paper_config() { return bench::paper_config(kSimScale); }

driver::ExperimentConfig carp_crash_config() {
  driver::ExperimentConfig config = bench::paper_config(kSimScale);
  config.scheme = driver::Scheme::kCarp;
  config.proxies = kCrashProxies;
  config.concurrency = kCrashClients;
  config.baseline_policy = cache::Policy::kGdsf;
  config.payload.enabled = true;
  config.payload.byte_budget = kProxyByteBudget;
  config.payload.erasure.enabled = true;
  config.payload.erasure.data_chunks = 3;
  config.payload.erasure.restripe = true;
  config.membership.swim.enabled = true;
  config.link.enabled = true;
  config.link.origin_egress_bytes_per_sec = kOriginEgress;
  fault::CrashWindow crash;
  crash.node = kCrashVictim;
  crash.at = kCrashAt;
  crash.restart = kSimTimeMax;  // permanent
  crash.flush_state = true;
  config.fault_plan.crashes.push_back(crash);
  config.request_timeout = kCrashRequestTimeout;
  return config;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Fields sim_fields(const driver::ExperimentResult& r, double wall_s, std::uint64_t issued,
                  int concurrency) {
  const auto& s = r.summary;
  const auto& adc = r.adc_totals;
  const double forwards = static_cast<double>(adc.forwards_learned + adc.forwards_random +
                                              adc.forwards_origin);
  return {
      {"wall_s", wall_s},
      {"inner_s", r.wall_seconds},
      {"issued", static_cast<double>(issued)},
      {"completed", static_cast<double>(s.completed)},
      {"failed", static_cast<double>(s.failed)},
      {"hits", static_cast<double>(s.hits)},
      {"hops", static_cast<double>(s.total_hops)},
      {"bytes_completed", static_cast<double>(s.bytes_completed)},
      {"bytes_hit", static_cast<double>(s.bytes_hit)},
      {"events", static_cast<double>(r.events)},
      {"messages", static_cast<double>(r.messages)},
      {"concurrency", static_cast<double>(concurrency)},
      {"origin_served", static_cast<double>(r.origin_served)},
      {"forwards_learned", static_cast<double>(adc.forwards_learned)},
      {"forwards_total", forwards},
      {"loops", static_cast<double>(adc.loops_detected)},
      {"degraded_started", static_cast<double>(r.store.degraded_started)},
      {"degraded_recovered", static_cast<double>(r.store.degraded_recovered)},
      {"store_messages", static_cast<double>(s.traffic.store_messages)},
      {"stripes_healed", static_cast<double>(r.store.stripes_healed)},
      {"stripes_stranded", static_cast<double>(r.store.stripes_stranded)},
      {"link_transfers", static_cast<double>(r.link.transfers)},
      {"link_queued", static_cast<double>(r.link.queued)},
      {"link_wait_p99", r.link.wait_p99},
      {"link_max_backlog", static_cast<double>(r.link.max_backlog_bytes)},
      {"deaths", static_cast<double>(r.membership.deaths)},
      {"suspicions", static_cast<double>(r.membership.suspicions)},
      {"max_reshuffle", r.membership.max_reshuffle_fraction},
      {"timeouts", static_cast<double>(r.faults.timeouts)},
      {"drops_crash", static_cast<double>(r.faults.drops_crash)},
  };
}

/// Replays run_experiment until the window closes; the first call in a
/// process runs slowest, so the caller has already made a warmup call.
void sim_window(const driver::ExperimentConfig& config, const workload::Trace& trace,
                double seconds, SpanRecorder& spans, std::vector<Fields>* rows,
                std::vector<std::string>* digests, driver::ExperimentResult* last) {
  const auto window = std::chrono::steady_clock::now();
  while (rows->size() < static_cast<std::size_t>(kMinReplays) || seconds_since(window) < seconds) {
    ScopedSpan span(spans, "driver.run_experiment");
    const auto start = std::chrono::steady_clock::now();
    driver::ExperimentResult result = driver::run_experiment(config, trace);
    const double wall = seconds_since(start);
    span.set_count(result.summary.completed + result.summary.failed);
    rows->push_back(sim_fields(result, wall, trace.size(), config.concurrency));
    digests->push_back(result_digest(result));
    *last = std::move(result);
  }
}

WorkloadOutput run_sim(const Options& options, SpanRecorder& spans) {
  WorkloadOutput out;
  out.config = options.workload == kSimAdcPaper ? adc_paper_config() : carp_crash_config();
  SpanRecorder off(false);
  out.trace = generate_trace(kSimScale, options.seed, spans, &out.trace_gen_s);

  driver::ExperimentResult last = driver::run_experiment(out.config, out.trace);  // warmup
  out.digests.push_back(result_digest(last));
  if (!options.trace) {
    sim_window(out.config, out.trace, options.seconds, off, &out.replays, &out.digests, &last);
  } else {
    // Half the window untraced, half traced: same work, so the difference
    // is the tracing overhead and the outputs must match bit for bit.
    sim_window(out.config, out.trace, options.seconds / 2, off, &out.replays, &out.digests,
               &last);
    sim_window(out.config, out.trace, options.seconds / 2, spans, &out.traced_replays,
               &out.traced_digests, &last);
  }
  out.events = last.events;
  out.hops_p50 = std::max(1, last.hops_p50);
  out.hops_p95 = std::max(1, last.hops_p95);
  out.hops_max = std::max(1, last.hops_max);
  out.frames_per_req = static_cast<double>(last.messages) /
                       static_cast<double>(std::max<std::uint64_t>(1, last.summary.completed));
  return out;
}

// ---- live-adc-loopback ------------------------------------------------------

/// Five ADC daemons and an origin on 127.0.0.1, each on its own thread,
/// hosted in this process the way the cluster tests host them.
class Cluster {
 public:
  explicit Cluster(const core::AdcConfig& adc) {
    std::map<NodeId, net::Endpoint> endpoints;
    for (NodeId id = 0; id <= kLiveOrigin; ++id) {
      server::DaemonConfig config;
      config.node_id = id;
      config.role = id == kLiveOrigin ? server::DaemonRole::kOrigin : server::DaemonRole::kAdcProxy;
      for (NodeId p = 0; p < kLiveProxies; ++p) config.proxy_ids.push_back(p);
      config.origin_id = kLiveOrigin;
      config.adc = adc;
      config.seed = 1;
      config.listen = net::Endpoint{"127.0.0.1", 0};
      auto daemon = std::make_unique<server::NodeDaemon>(config);
      std::string error;
      const std::uint16_t port = daemon->bind(&error);
      if (port == 0) throw std::runtime_error("bind failed: " + error);
      endpoints[id] = net::Endpoint{"127.0.0.1", port};
      daemons_.push_back(std::move(daemon));
    }
    for (auto& daemon : daemons_) daemon->set_peers(endpoints);
    for (const auto& [id, endpoint] : endpoints) {
      if (id != kLiveOrigin) proxies_[id] = endpoint;
    }
    for (auto& daemon : daemons_) {
      server::NodeDaemon* d = daemon.get();
      threads_.emplace_back([d]() { d->run(); });
    }
  }

  ~Cluster() { shutdown(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Stops every daemon and joins its thread; stats are race-free after.
  void shutdown() {
    for (auto& daemon : daemons_) daemon->stop();
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

  double daemon_cpu_seconds() {
    double total = 0.0;
    for (auto& thread : threads_) total += thread_cpu_seconds(thread.native_handle());
    return total;
  }

  const std::map<NodeId, net::Endpoint>& proxies() const noexcept { return proxies_; }
  std::vector<std::unique_ptr<server::NodeDaemon>>& daemons() noexcept { return daemons_; }

 private:
  std::vector<std::unique_ptr<server::NodeDaemon>> daemons_;
  std::vector<std::thread> threads_;
  std::map<NodeId, net::Endpoint> proxies_;
};

/// One fresh cluster: bring-up, fill-phase warmup, measured phases I and
/// II, shutdown.
Fields live_replay(const core::AdcConfig& adc, const std::vector<ObjectId>& fill,
                   const std::vector<ObjectId>& measured, SpanRecorder& spans) {
  const auto setup_start = std::chrono::steady_clock::now();
  int bringup_span = spans.open("server.cluster_bringup");
  Cluster cluster(adc);
  server::LoadGenConfig lg;
  lg.client_id = kLiveClient;
  lg.proxies = cluster.proxies();
  lg.concurrency = kLiveConcurrency;
  lg.entry = server::EntryChoice::kRoundRobin;
  lg.idle_timeout_ms = 30000;
  server::LoadGenerator loadgen(std::move(lg));
  std::string error;
  if (!loadgen.connect(&error)) throw std::runtime_error("loadgen connect: " + error);
  spans.close(bringup_span);
  const double bringup_s = seconds_since(setup_start);

  server::LoadGenReport warm;
  {
    ScopedSpan span(spans, "server.LoadGenerator.run.warmup");
    warm = loadgen.run(fill);
    span.set_count(warm.completed);
  }
  const double setup_s = seconds_since(setup_start);

  const double daemon_cpu0 = cluster.daemon_cpu_seconds();
  const double loadgen_cpu0 = self_cpu_seconds();
  server::LoadGenReport report;
  double wall_s = 0.0;
  {
    ScopedSpan span(spans, "server.LoadGenerator.run");
    const auto start = std::chrono::steady_clock::now();
    report = loadgen.run(measured);
    wall_s = seconds_since(start);
    span.set_count(report.completed);
  }
  const double loadgen_cpu = self_cpu_seconds() - loadgen_cpu0;
  const double daemon_cpu = cluster.daemon_cpu_seconds() - daemon_cpu0;
  {
    ScopedSpan span(spans, "server.cluster_shutdown");
    cluster.shutdown();
  }

  double frames_out = 0, drops = 0, origin_deliveries = 0;
  double learned = 0, forwards = 0, loops = 0;
  for (auto& daemon : cluster.daemons()) {
    const server::DaemonStats& st = daemon->stats();
    frames_out += static_cast<double>(st.frames_out);
    drops += static_cast<double>(st.drops_unroutable + st.drops_corrupt + st.body_verify_failures);
    if (daemon->node_id() == kLiveOrigin) {
      origin_deliveries = static_cast<double>(st.deliveries);
      continue;
    }
    if (const auto* proxy = dynamic_cast<const core::AdcProxy*>(&daemon->hosted())) {
      const core::AdcProxyStats& a = proxy->stats();
      learned += static_cast<double>(a.forwards_learned);
      forwards += static_cast<double>(a.forwards_learned + a.forwards_random + a.forwards_origin);
      loops += static_cast<double>(a.loops_detected);
    }
  }
  return {
      {"wall_s", wall_s},
      {"setup_s", setup_s},
      {"bringup_s", bringup_s},
      {"issued", static_cast<double>(report.issued)},
      {"completed", static_cast<double>(report.completed)},
      {"failed", static_cast<double>(report.failed)},
      {"timed_out", report.timed_out || warm.timed_out ? 1.0 : 0.0},
      {"hits", static_cast<double>(report.hits)},
      {"hops", static_cast<double>(report.total_hops)},
      {"latency_p50_us", report.latency_p50_us},
      {"latency_p99_us", report.latency_p99_us},
      {"latency_samples", static_cast<double>(report.completed)},
      {"concurrency", static_cast<double>(kLiveConcurrency)},
      {"warm_issued", static_cast<double>(warm.issued)},
      {"warm_completed", static_cast<double>(warm.completed)},
      {"warm_failed", static_cast<double>(warm.failed)},
      {"warm_hits", static_cast<double>(warm.hits)},
      {"warm_hops", static_cast<double>(warm.total_hops)},
      {"frames_out", frames_out},
      {"drops", drops},
      {"daemons", static_cast<double>(cluster.daemons().size())},
      {"daemon_cpu_s", daemon_cpu},
      {"loadgen_cpu_s", loadgen_cpu},
      {"origin_deliveries", origin_deliveries},
      {"forwards_learned", learned},
      {"forwards_total", forwards},
      {"loops", loops},
  };
}

void live_window(const core::AdcConfig& adc, const workload::Trace& trace, double seconds,
                 SpanRecorder& spans, std::vector<Fields>* rows) {
  const auto& all = trace.requests();
  const auto fill_end = static_cast<std::ptrdiff_t>(trace.phases().fill_end);
  const std::vector<ObjectId> fill(all.begin(), all.begin() + fill_end);
  const std::vector<ObjectId> measured(all.begin() + fill_end, all.end());
  const auto window = std::chrono::steady_clock::now();
  while (rows->size() < static_cast<std::size_t>(kMinReplays) || seconds_since(window) < seconds) {
    rows->push_back(live_replay(adc, fill, measured, spans));
  }
}

WorkloadOutput run_live(const Options& options, SpanRecorder& spans) {
  WorkloadOutput out;
  SpanRecorder off(false);
  out.trace = generate_trace(kLiveScale, options.seed, spans, &out.trace_gen_s);
  out.config = bench::paper_config(kLiveScale);
  out.config.entry_policy = proxy::EntryPolicy::kRoundRobin;
  out.config.concurrency = kLiveConcurrency;

  if (!options.trace) {
    live_window(out.config.adc, out.trace, options.seconds, off, &out.replays);
  } else {
    live_window(out.config.adc, out.trace, options.seconds / 2, off, &out.replays);
    live_window(out.config.adc, out.trace, options.seconds / 2, spans, &out.traced_replays);
  }

  // The simulator on the same trace, entry policy and concurrency: the
  // reference the cluster's hit rate and hops must agree with.
  ScopedSpan span(spans, "driver.run_experiment");
  const auto start = std::chrono::steady_clock::now();
  const driver::ExperimentResult sim = driver::run_experiment(out.config, out.trace);
  out.oracle = sim_fields(sim, seconds_since(start), out.trace.size(), out.config.concurrency);
  span.set_count(sim.summary.completed);

  out.events = sim.events;
  out.hops_p50 = std::max(1, sim.hops_p50);
  out.hops_p95 = std::max(1, sim.hops_p95);
  out.hops_max = std::max(1, sim.hops_max);
  double frames = 0, completed = 0;
  for (const Fields& row : out.replays) {
    for (const auto& [key, value] : row) {
      if (key == "frames_out") frames += value;
      if (key == "completed" || key == "warm_completed") completed += value;
    }
  }
  out.frames_per_req = completed > 0 ? frames / completed : 0.0;
  return out;
}

}  // namespace

bool is_workload(std::string_view name) {
  return name == kSimAdcPaper || name == kSimCarpCrash || name == kLiveAdc;
}

WorkloadOutput run_workload(const Options& options, SpanRecorder& spans) {
  if (options.workload == kLiveAdc) return run_live(options, spans);
  return run_sim(options, spans);
}

std::string result_digest(const driver::ExperimentResult& r) {
  std::ostringstream text;
  const auto put = [&text](auto value) { text << value << ';'; };
  const auto put_all = [&put](const std::vector<std::uint64_t>& values) {
    for (const std::uint64_t v : values) put(v);
    put('|');
  };
  text.precision(17);
  const auto& s = r.summary;
  put(s.completed), put(s.hits), put(s.failed), put(s.stale_hits), put(s.total_hops);
  put(s.total_forwards), put(s.total_latency), put(s.bytes_completed), put(s.bytes_hit);
  put(s.bytes_recovered), put(s.degraded_reads), put(s.latency_p99), put(s.latency_p999);
  put_all(s.owner_requests), put_all(s.owner_hits), put_all(s.owner_bytes);
  put(s.traffic.request_messages), put(s.traffic.reply_messages);
  put(s.traffic.control_messages), put(s.traffic.store_messages);
  put(s.traffic.total_bytes());
  for (const sim::SeriesPoint& p : r.series) put(p.requests), put(p.hit_rate), put(p.hops);
  put(r.events), put(r.messages), put(r.origin_served), put(r.sim_end_time);
  put(r.hops_p50), put(r.hops_p95), put(r.hops_max);
  put(r.latency_p50), put(r.latency_p95), put(r.latency_p99), put(r.latency_p999);
  for (const driver::ProxySnapshot& p : r.proxies) {
    put(p.requests_received), put(p.local_hits), put(p.cached_objects), put(p.table_entries);
    put(p.payload_bytes_served);
  }
  const auto& a = r.adc_totals;
  put(a.requests_received), put(a.local_hits), put(a.forwards_learned), put(a.forwards_random);
  put(a.forwards_origin), put(a.loops_detected), put(a.replies_relayed), put(a.cache_admissions);
  const auto& m = r.membership;
  put(m.max_epoch), put(m.deaths), put(m.joins), put(m.suspicions), put(m.refutations);
  put(m.repair_rounds), put(m.max_reshuffle_fraction);
  const auto& f = r.faults;
  put(f.total_drops()), put(f.timeouts), put(f.entries_invalidated), put(f.degraded_fetches);
  const auto& st = r.store;
  put(st.payload_bytes_served), put(st.payload_bytes_fetched), put(st.stripes_registered);
  put(st.chunks_stored), put(st.chunk_requests_sent), put(st.degraded_started);
  put(st.degraded_recovered), put(st.degraded_failed), put(st.stripes_healed);
  put(st.repair_bytes), put(st.stripe_objects_tracked), put(st.stripes_stranded);
  const auto& l = r.link;
  put(l.transfers), put(l.passthrough), put(l.queued), put(l.bursts), put(l.bytes);
  put(l.max_backlog_bytes), put(l.wait_p50), put(l.wait_p99), put(l.max_wait);
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fnv1a(text.str())));
  return buf;
}

}  // namespace adc::perfbench
