// Extension EXT-BW — bandwidth-modeled links and the transfer scheduler,
// across ADC x CARP x hierarchical under an origin-egress sweep.
//
// Two grids on the paper deployment, both with the payload store on:
//   1. Origin-egress sweep: every send becomes a queued transfer
//      (serialization + DRR queueing at the sender's egress).  As the
//      origin's uplink tightens, misses contend for the same constrained
//      pipe: transfer-queue waits grow from zero to dominating the
//      response time, and the schemes order by byte hit rate — whoever
//      keeps more bytes out of the origin's queue degrades last.
//   2. Recovery placement: CARP + erasure tier, proxy 2 lost for good
//      mid-run, links constrained.  With the link model on, degraded
//      reads read per-egress backlog and ask only the lightest-loaded
//      stripe peers (chunk_requests_skipped counts the avoided asks);
//      with it off, every survivor is asked.
//
// Accepts --workers N (0 = hardware concurrency) and --json PATH for a
// machine-readable artifact; the grid is bit-identical at any worker
// count.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/fault_plan.h"

namespace {

using namespace adc;

std::string mb(std::uint64_t bytes) {
  return driver::fmt(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
}

std::string egress_label(std::uint64_t bytes_per_sec) {
  if (bytes_per_sec == 0) return "unlimited";
  return driver::fmt(static_cast<double>(bytes_per_sec) / (1024.0 * 1024.0), 1) + "MB/s";
}

}  // namespace

int main(int argc, char** argv) {
  int workers = 0;
  std::string json_path;
  util::CliParser cli("Extension: bandwidth-modeled links and transfer scheduling.");
  cli.bind("workers", &workers, bench::kWorkersHelp)
      .bind("json", &json_path, bench::kJsonHelp);
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  const double scale = bench::bench_scale();
  const workload::Trace trace = bench::paper_trace(scale);
  bench::print_run_banner("Extension: bandwidth-modeled links and transfer scheduling", scale,
                          trace);
  std::vector<std::vector<driver::JsonField>> json_rows;

  const std::vector<driver::Scheme> schemes = {
      driver::Scheme::kAdc, driver::Scheme::kCarp, driver::Scheme::kHierarchical};
  // Origin uplink sweep; proxies keep a generous (but finite) egress so
  // DRR fairness between destinations stays in play throughout.
  const std::vector<std::uint64_t> origin_sweep = {0, 64u << 20, 4u << 20, 1u << 20};
  constexpr std::uint64_t kProxyEgress = 64u << 20;

  auto linked_config = [&](driver::Scheme scheme, std::uint64_t origin_egress) {
    driver::ExperimentConfig config = bench::paper_config(scale);
    config.scheme = scheme;
    config.payload.enabled = true;
    config.link.enabled = true;
    config.link.node_egress_bytes_per_sec = kProxyEgress;
    config.link.origin_egress_bytes_per_sec = origin_egress;
    // Enough overlapping streams that misses actually contend for the
    // origin's uplink; at the paper's single closed loop no transfer
    // ever queues and the sweep is flat.
    config.concurrency = 16;
    return config;
  };

  // ---- Grid 1: the origin-egress sweep ----
  std::vector<driver::ExperimentConfig> sweep_configs;
  for (const auto scheme : schemes) {
    for (const std::uint64_t egress : origin_sweep) {
      sweep_configs.push_back(linked_config(scheme, egress));
    }
  }
  const std::vector<driver::ExperimentResult> swept =
      driver::run_parallel(sweep_configs, trace, workers);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"scheme", "origin_egress", "hit_rate", "byte_hit", "origin_mb", "wait_p50",
                  "wait_p99", "wait_max", "queued"});
  std::size_t index = 0;
  for (const auto scheme : schemes) {
    for (const std::uint64_t egress : origin_sweep) {
      const driver::ExperimentResult& result = swept[index++];
      rows.push_back({std::string(driver::scheme_name(scheme)), egress_label(egress),
                      driver::fmt(result.summary.hit_rate(), 3),
                      driver::fmt(result.summary.byte_hit_rate(), 3),
                      mb(result.summary.origin_bytes()),
                      driver::fmt(result.link.wait_p50, 1),
                      driver::fmt(result.link.wait_p99, 1),
                      std::to_string(result.link.max_wait),
                      std::to_string(result.link.queued)});
      json_rows.push_back(
          {driver::json_str("grid", "sweep"),
           driver::json_str("scheme", driver::scheme_name(scheme)),
           driver::json_num("origin_egress_bytes_per_sec", egress),
           driver::json_num("hit_rate", result.summary.hit_rate(), 4),
           driver::json_num("byte_hit_rate", result.summary.byte_hit_rate(), 4),
           driver::json_num("origin_bytes", result.summary.origin_bytes()),
           driver::json_num("link_transfers", result.link.transfers),
           driver::json_num("link_queued", result.link.queued),
           driver::json_num("link_bytes", result.link.bytes),
           driver::json_num("wait_p50", result.link.wait_p50, 2),
           driver::json_num("wait_p99", result.link.wait_p99, 2),
           driver::json_num("wait_p999", result.link.wait_p999, 2),
           driver::json_num("wait_max", static_cast<double>(result.link.max_wait), 0),
           driver::json_num("store_bytes", result.summary.traffic.store_bytes),
           driver::json_num("control_messages",
                            result.summary.traffic.control_messages)});
    }
  }
  std::cout << "\n## origin-egress sweep (waits in sim ticks; 1 tick = 1ms)\n";
  driver::print_table(std::cout, rows);

  // ---- Grid 2: recovery placement under constrained links ----
  constexpr double kCrashAt = 0.35;
  constexpr std::uint64_t kConstrainedOrigin = 4u << 20;
  constexpr int kRecoveryDataChunks = 2;  // k=2 over 5 proxies: recovery has
                                          // more survivors than it needs, so
                                          // load steering has a choice
  // The carp run at the constrained origin rate times the crash window
  // (sweep_configs is scheme-major: carp is scheme 1, 4MB/s is egress
  // step 2).
  const driver::ExperimentResult& probe = swept[1 * origin_sweep.size() + 2];
  const auto deadline = std::max<SimTime>(
      static_cast<SimTime>(std::llround(probe.latency_p99 * 20.0)), 1000);

  std::vector<driver::ExperimentConfig> recovery_configs;
  for (const bool link_on : {false, true}) {
    driver::ExperimentConfig config = linked_config(driver::Scheme::kCarp, kConstrainedOrigin);
    config.link.enabled = link_on;
    config.membership.swim.enabled = true;
    config.payload.erasure.enabled = true;
    config.payload.erasure.data_chunks = kRecoveryDataChunks;
    fault::CrashWindow window;
    window.node = 2;
    window.at = static_cast<SimTime>(static_cast<double>(probe.sim_end_time) * kCrashAt);
    window.restart = kSimTimeMax;  // permanent: the member never returns
    window.flush_state = true;
    config.fault_plan.crashes.push_back(window);
    config.request_timeout = deadline;
    recovery_configs.push_back(config);
  }
  const std::vector<driver::ExperimentResult> recovered =
      driver::run_parallel(recovery_configs, trace, workers);

  rows.clear();
  rows.push_back({"link_model", "byte_hit", "recovered_mb", "degraded_ok", "chunk_asks",
                  "asks_skipped", "wait_p99"});
  for (std::size_t r = 0; r < recovered.size(); ++r) {
    const driver::ExperimentResult& result = recovered[r];
    const bool link_on = r == 1;
    rows.push_back({link_on ? "on" : "off",
                    driver::fmt(result.summary.byte_hit_rate(), 3),
                    mb(result.summary.bytes_recovered),
                    std::to_string(result.store.degraded_recovered),
                    std::to_string(result.store.chunk_requests_sent),
                    std::to_string(result.store.chunk_requests_skipped),
                    driver::fmt(result.link.wait_p99, 1)});
    json_rows.push_back(
        {driver::json_str("grid", "recovery"),
         driver::json_str("link_model", link_on ? "on" : "off"),
         driver::json_num("byte_hit_rate", result.summary.byte_hit_rate(), 4),
         driver::json_num("bytes_recovered", result.summary.bytes_recovered),
         driver::json_num("degraded_recovered", result.store.degraded_recovered),
         driver::json_num("chunk_requests_sent", result.store.chunk_requests_sent),
         driver::json_num("chunk_requests_skipped", result.store.chunk_requests_skipped),
         driver::json_num("wait_p99", result.link.wait_p99, 2)});
  }
  std::cout << "\n## CARP + erasure, proxy[2] lost at " << driver::fmt(kCrashAt, 2)
            << " of the healthy run, origin at " << egress_label(kConstrainedOrigin) << "\n";
  driver::print_table(std::cout, rows);

  std::cout << "\nwait_* are transfer-queue waits (enqueue to first burst) in sim ticks;"
            << "\nasks_skipped counts stripe peers a degraded read did NOT ask because"
            << "\nthe link model reported lighter-loaded survivors with enough chunks\n";
  if (!driver::write_json_rows(json_path, json_rows)) return 1;
  if (!json_path.empty()) std::cout << "wrote " << json_path << "\n";
  return 0;
}
