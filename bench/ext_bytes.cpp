// Extension EXT-BYTES — byte accounting, size-aware replacement, and the
// erasure tier's degraded reads, across ADC x CARP x hierarchical.
//
// Three grids on the paper deployment:
//   1. Healthy byte accounting: with the payload store on, every reply
//      carries a heavy-tailed payload size, so byte hit rate diverges
//      from request hit rate (the large-object tail misses more bytes
//      than requests).
//   2. Degraded reads: proxy 2 crashes for good at 0.35 of the healthy
//      run with SWIM on.  With the erasure tier off, every post-crash
//      miss burns an origin fetch; with it on, previously-striped
//      objects are rebuilt from surviving stripe peers and their bytes
//      land in the hit ledger instead of the origin's.
//   3. Policy-on-bytes: under a tight per-proxy byte budget the
//      replacement policy decides which bytes stay; GDSF and size-aware
//      LRU trade large-object hits for small-object ones.
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

}  // namespace

int main(int argc, char** argv) {
  int workers = 0;
  std::string json_path;
  util::CliParser cli("Extension: payload bytes, size-aware policies, erasure tier.");
  cli.bind("workers", &workers, bench::kWorkersHelp)
      .bind("json", &json_path, bench::kJsonHelp);
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  const double scale = bench::bench_scale();
  const workload::Trace trace = bench::paper_trace(scale);
  bench::print_run_banner("Extension: payload bytes, size-aware policies, erasure tier", scale,
                          trace);
  std::vector<std::vector<driver::JsonField>> json_rows;

  const std::vector<driver::Scheme> schemes = {
      driver::Scheme::kAdc, driver::Scheme::kCarp, driver::Scheme::kHierarchical};
  constexpr double kCrashAt = 0.35;

  // ---- Grid 1: healthy byte accounting (doubles as the crash probe) ----
  std::vector<driver::ExperimentConfig> probes;
  for (const auto scheme : schemes) {
    driver::ExperimentConfig config = bench::paper_config(scale);
    config.scheme = scheme;
    config.payload.enabled = true;
    probes.push_back(config);
  }
  const std::vector<driver::ExperimentResult> healthy =
      driver::run_parallel(probes, trace, workers);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"scheme", "hit_rate", "byte_hit", "total_mb", "origin_mb"});
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    const driver::ExperimentResult& result = healthy[s];
    rows.push_back({std::string(driver::scheme_name(schemes[s])),
                    driver::fmt(result.summary.hit_rate(), 3),
                    driver::fmt(result.summary.byte_hit_rate(), 3),
                    mb(result.summary.bytes_completed), mb(result.summary.origin_bytes())});
    json_rows.push_back({driver::json_str("grid", "healthy"),
                         driver::json_str("scheme", driver::scheme_name(schemes[s])),
                         driver::json_num("hit_rate", result.summary.hit_rate(), 4),
                         driver::json_num("byte_hit_rate", result.summary.byte_hit_rate(), 4),
                         driver::json_num("bytes_completed", result.summary.bytes_completed),
                         driver::json_num("origin_bytes", result.summary.origin_bytes())});
  }
  std::cout << "\n## healthy runs: request vs byte hit rate\n";
  driver::print_table(std::cout, rows);

  // ---- Grid 2: permanent loss, erasure tier off vs on (ADC, CARP) ----
  const std::vector<driver::Scheme> crash_schemes = {driver::Scheme::kAdc,
                                                     driver::Scheme::kCarp};
  std::vector<driver::ExperimentConfig> crash_configs;
  for (std::size_t s = 0; s < crash_schemes.size(); ++s) {
    const driver::ExperimentResult& probe = healthy[s];  // adc, carp lead the list
    const auto deadline = std::max<SimTime>(
        static_cast<SimTime>(std::llround(probe.latency_p99 * 20.0)), 1000);
    for (const bool erasure : {false, true}) {
      driver::ExperimentConfig config = probes[s];
      config.membership.swim.enabled = true;
      config.payload.erasure.enabled = erasure;
      fault::CrashWindow window;
      window.node = 2;
      window.at =
          static_cast<SimTime>(static_cast<double>(probe.sim_end_time) * kCrashAt);
      window.restart = kSimTimeMax;  // permanent: the member never returns
      window.flush_state = true;
      config.fault_plan.crashes.push_back(window);
      config.request_timeout = deadline;
      crash_configs.push_back(config);
    }
  }
  const std::vector<driver::ExperimentResult> crashed =
      driver::run_parallel(crash_configs, trace, workers);

  rows.clear();
  rows.push_back({"scheme", "erasure", "byte_hit", "recovered_mb", "origin_mb", "degraded",
                  "recovered", "failed"});
  std::size_t index = 0;
  for (std::size_t s = 0; s < crash_schemes.size(); ++s) {
    for (const bool erasure : {false, true}) {
      const driver::ExperimentResult& result = crashed[index++];
      rows.push_back({std::string(driver::scheme_name(crash_schemes[s])),
                      erasure ? "on" : "off",
                      driver::fmt(result.summary.byte_hit_rate(), 3),
                      mb(result.summary.bytes_recovered), mb(result.summary.origin_bytes()),
                      std::to_string(result.store.degraded_started),
                      std::to_string(result.store.degraded_recovered),
                      std::to_string(result.store.degraded_failed)});
      json_rows.push_back(
          {driver::json_str("grid", "crash"),
           driver::json_str("scheme", driver::scheme_name(crash_schemes[s])),
           driver::json_str("erasure", erasure ? "on" : "off"),
           driver::json_num("byte_hit_rate", result.summary.byte_hit_rate(), 4),
           driver::json_num("bytes_recovered", result.summary.bytes_recovered),
           driver::json_num("origin_bytes", result.summary.origin_bytes()),
           driver::json_num("degraded_started", result.store.degraded_started),
           driver::json_num("degraded_recovered", result.store.degraded_recovered),
           driver::json_num("degraded_failed", result.store.degraded_failed)});
    }
  }
  std::cout << "\n## proxy[2] lost for good at " << driver::fmt(kCrashAt, 2)
            << " of the healthy run (SWIM on)\n";
  driver::print_table(std::cout, rows);

  // ---- Grid 3: replacement policy under a tight byte budget (CARP) ----
  const auto budget =
      static_cast<std::uint64_t>(bench::scaled_size(std::size_t{32} << 20, scale));
  const std::vector<cache::Policy> policies = {cache::Policy::kLru, cache::Policy::kLfu,
                                               cache::Policy::kGdsf, cache::Policy::kSizeLru};
  std::vector<driver::ExperimentConfig> policy_configs;
  for (const cache::Policy policy : policies) {
    driver::ExperimentConfig config = bench::paper_config(scale);
    config.scheme = driver::Scheme::kCarp;
    config.payload.enabled = true;
    config.payload.byte_budget = budget;
    config.baseline_policy = policy;
    policy_configs.push_back(config);
  }
  const std::vector<driver::ExperimentResult> budgeted =
      driver::run_parallel(policy_configs, trace, workers);

  rows.clear();
  rows.push_back({"policy", "hit_rate", "byte_hit", "origin_mb"});
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const driver::ExperimentResult& result = budgeted[p];
    rows.push_back({std::string(cache::policy_name(policies[p])),
                    driver::fmt(result.summary.hit_rate(), 3),
                    driver::fmt(result.summary.byte_hit_rate(), 3),
                    mb(result.summary.origin_bytes())});
    json_rows.push_back(
        {driver::json_str("grid", "policy"),
         driver::json_str("policy", cache::policy_name(policies[p])),
         driver::json_num("hit_rate", result.summary.hit_rate(), 4),
         driver::json_num("byte_hit_rate", result.summary.byte_hit_rate(), 4),
         driver::json_num("origin_bytes", result.summary.origin_bytes())});
  }
  std::cout << "\n## CARP under a " << mb(budget)
            << " MB per-proxy byte budget, by replacement policy\n";
  driver::print_table(std::cout, rows);

  std::cout << "\nbyte_hit is bytes served from proxy caches (degraded reads included)"
            << "\nover total payload bytes; recovered_mb is bytes rebuilt from surviving"
            << "\nstripe peers after the crash instead of refetched from the origin\n";
  if (!driver::write_json_rows(json_path, json_rows)) return 1;
  if (!json_path.empty()) std::cout << "wrote " << json_path << "\n";
  return 0;
}
