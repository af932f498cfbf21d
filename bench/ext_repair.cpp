// Extension EXT-REPAIR — proactive re-stripe repair and the multi-death
// data-loss window, across ADC x CARP.
//
// The deployment is the paper's, widened to 8 proxies so k = 3 stripes
// (width 5) always have spare members to re-home chunks onto.  Two grids:
//
//   1. Two deaths + eviction pressure: proxies 2 and 5 crash for good at
//      0.30 and 0.55 of the healthy run, under a per-proxy chunk-directory
//      byte budget.  Two deaths alone leave every stripe at exactly k
//      chunks — arithmetically safe — but any directory eviction among the
//      survivors then strands the object.  With repair off, the post-run
//      stripe census finds those stranded objects; with repair on, each
//      death is healed back to full k + 2 width in byte-budgeted rounds,
//      so the same evictions land on stripes that still have margin.
//   2. Three deaths, no eviction pressure: proxy 7 additionally crashes at
//      0.65.  The unrepaired cluster deterministically loses every object
//      whose stripe contained all three victims; the repaired one strands
//      nothing.
//
// The binary exits nonzero when the repair invariants fail — no healed
// stripe, a round over the byte budget, or a repaired run stranding more
// than its unrepaired twin — so the CI job is a real check, not just an
// artifact upload.
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

constexpr int kProxies = 8;
constexpr std::uint64_t kRepairBudget = 256 * 1024;  // > the largest chunk

std::string mb(std::uint64_t bytes) {
  return driver::fmt(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
}

fault::CrashWindow crash_at(const driver::ExperimentResult& probe, NodeId node,
                            double fraction) {
  fault::CrashWindow window;
  window.node = node;
  window.at = static_cast<SimTime>(static_cast<double>(probe.sim_end_time) * fraction);
  window.restart = kSimTimeMax;  // permanent: the member never returns
  window.flush_state = true;
  return window;
}

}  // namespace

int main(int argc, char** argv) {
  int workers = 0;
  std::string json_path;
  util::CliParser cli("Extension: proactive re-stripe repair vs the multi-death window.");
  cli.bind("workers", &workers, bench::kWorkersHelp)
      .bind("json", &json_path, bench::kJsonHelp);
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  const double scale = bench::bench_scale();
  const workload::Trace trace = bench::paper_trace(scale);
  bench::print_run_banner("Extension: proactive re-stripe repair vs the multi-death window",
                          scale, trace);
  std::vector<std::vector<driver::JsonField>> json_rows;

  const std::vector<driver::Scheme> schemes = {driver::Scheme::kAdc, driver::Scheme::kCarp};

  // ---- Healthy probes: place the crashes and size the deadlines ----
  std::vector<driver::ExperimentConfig> probes;
  for (const auto scheme : schemes) {
    driver::ExperimentConfig config = bench::paper_config(scale);
    config.scheme = scheme;
    config.proxies = kProxies;
    config.payload.enabled = true;
    config.payload.erasure.enabled = true;
    probes.push_back(config);
  }
  const std::vector<driver::ExperimentResult> healthy =
      driver::run_parallel(probes, trace, workers);

  // ---- Grid 1: two deaths under directory-eviction pressure ----
  // The budget is the third unavailability: sized so survivors must evict
  // a meaningful share of their chunk directories.
  const auto dir_budget =
      static_cast<std::uint64_t>(bench::scaled_size(std::size_t{48} << 20, scale));
  std::vector<driver::ExperimentConfig> two_death_configs;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    const driver::ExperimentResult& probe = healthy[s];
    const auto deadline = std::max<SimTime>(
        static_cast<SimTime>(std::llround(probe.latency_p99 * 20.0)), 1000);
    for (const bool repair : {false, true}) {
      driver::ExperimentConfig config = probes[s];
      config.membership.swim.enabled = true;
      config.payload.erasure.directory_budget = dir_budget;
      config.payload.erasure.restripe = repair;
      config.payload.erasure.repair_bytes_per_round = kRepairBudget;
      config.fault_plan.crashes.push_back(crash_at(probe, 2, 0.30));
      config.fault_plan.crashes.push_back(crash_at(probe, 5, 0.55));
      config.request_timeout = deadline;
      two_death_configs.push_back(config);
    }
  }
  const std::vector<driver::ExperimentResult> two_deaths =
      driver::run_parallel(two_death_configs, trace, workers);

  bool ok = true;
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"scheme", "repair", "tracked", "stranded", "healed", "repair_mb", "rounds",
                  "round_max_kb", "degraded_failed", "origin_mb"});
  std::size_t index = 0;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    const driver::ExperimentResult* off = nullptr;
    for (const bool repair : {false, true}) {
      const driver::ExperimentResult& result = two_deaths[index++];
      if (!repair) off = &result;
      rows.push_back(
          {std::string(driver::scheme_name(schemes[s])), repair ? "on" : "off",
           std::to_string(result.store.stripe_objects_tracked),
           std::to_string(result.store.stripes_stranded),
           std::to_string(result.store.stripes_healed), mb(result.store.repair_bytes),
           std::to_string(result.store.repair_rounds),
           driver::fmt(static_cast<double>(result.store.repair_round_bytes_max) / 1024.0, 1),
           std::to_string(result.store.degraded_failed), mb(result.summary.origin_bytes())});
      json_rows.push_back(
          {driver::json_str("grid", "two-deaths-evictions"),
           driver::json_str("scheme", driver::scheme_name(schemes[s])),
           driver::json_str("repair", repair ? "on" : "off"),
           driver::json_num("stripe_objects_tracked", result.store.stripe_objects_tracked),
           driver::json_num("stripes_stranded", result.store.stripes_stranded),
           driver::json_num("stripes_healed", result.store.stripes_healed),
           driver::json_num("repair_offers", result.store.repair_offers),
           driver::json_num("repair_adopted", result.store.repair_adopted),
           driver::json_num("repair_abandoned", result.store.repair_abandoned),
           driver::json_num("repair_bytes", result.store.repair_bytes),
           driver::json_num("repair_rounds", result.store.repair_rounds),
           driver::json_num("repair_round_bytes_max", result.store.repair_round_bytes_max),
           driver::json_num("degraded_failed", result.store.degraded_failed),
           driver::json_num("origin_bytes", result.summary.origin_bytes())});
      if (repair) {
        if (result.store.stripes_healed == 0) {
          std::cerr << "FAIL: repair-on run healed no stripes ("
                    << driver::scheme_name(schemes[s]) << ")\n";
          ok = false;
        }
        if (result.store.repair_round_bytes_max > kRepairBudget) {
          std::cerr << "FAIL: a repair round exceeded the byte budget ("
                    << result.store.repair_round_bytes_max << " > " << kRepairBudget << ")\n";
          ok = false;
        }
        if (off != nullptr && result.store.stripes_stranded > off->store.stripes_stranded) {
          std::cerr << "FAIL: repair-on stranded more than repair-off ("
                    << result.store.stripes_stranded << " > " << off->store.stripes_stranded
                    << ", " << driver::scheme_name(schemes[s]) << ")\n";
          ok = false;
        }
      }
    }
  }
  std::cout << "\n## proxies 2 and 5 lost for good (0.30, 0.55) under a " << mb(dir_budget)
            << " MB chunk-directory budget\n";
  driver::print_table(std::cout, rows);

  // ---- Grid 2: a third death, no eviction pressure ----
  std::vector<driver::ExperimentConfig> three_death_configs;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    const driver::ExperimentResult& probe = healthy[s];
    const auto deadline = std::max<SimTime>(
        static_cast<SimTime>(std::llround(probe.latency_p99 * 20.0)), 1000);
    for (const bool repair : {false, true}) {
      driver::ExperimentConfig config = probes[s];
      config.membership.swim.enabled = true;
      config.payload.erasure.restripe = repair;
      config.payload.erasure.repair_bytes_per_round = kRepairBudget;
      config.fault_plan.crashes.push_back(crash_at(probe, 2, 0.25));
      config.fault_plan.crashes.push_back(crash_at(probe, 5, 0.45));
      config.fault_plan.crashes.push_back(crash_at(probe, 7, 0.65));
      config.request_timeout = deadline;
      three_death_configs.push_back(config);
    }
  }
  const std::vector<driver::ExperimentResult> three_deaths =
      driver::run_parallel(three_death_configs, trace, workers);

  rows.clear();
  rows.push_back({"scheme", "repair", "tracked", "stranded", "healed", "repair_mb", "rounds",
                  "degraded_failed", "origin_mb"});
  index = 0;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    for (const bool repair : {false, true}) {
      const driver::ExperimentResult& result = three_deaths[index++];
      rows.push_back(
          {std::string(driver::scheme_name(schemes[s])), repair ? "on" : "off",
           std::to_string(result.store.stripe_objects_tracked),
           std::to_string(result.store.stripes_stranded),
           std::to_string(result.store.stripes_healed), mb(result.store.repair_bytes),
           std::to_string(result.store.repair_rounds),
           std::to_string(result.store.degraded_failed), mb(result.summary.origin_bytes())});
      json_rows.push_back(
          {driver::json_str("grid", "three-deaths"),
           driver::json_str("scheme", driver::scheme_name(schemes[s])),
           driver::json_str("repair", repair ? "on" : "off"),
           driver::json_num("stripe_objects_tracked", result.store.stripe_objects_tracked),
           driver::json_num("stripes_stranded", result.store.stripes_stranded),
           driver::json_num("stripes_healed", result.store.stripes_healed),
           driver::json_num("repair_bytes", result.store.repair_bytes),
           driver::json_num("repair_rounds", result.store.repair_rounds),
           driver::json_num("degraded_failed", result.store.degraded_failed),
           driver::json_num("origin_bytes", result.summary.origin_bytes())});
      if (repair && result.store.stripes_stranded != 0) {
        std::cerr << "FAIL: repaired cluster stranded "
                  << result.store.stripes_stranded << " stripes after three deaths ("
                  << driver::scheme_name(schemes[s]) << ")\n";
        ok = false;
      }
      if (!repair && result.store.stripes_stranded == 0) {
        std::cerr << "FAIL: unrepaired cluster stranded nothing after three deaths ("
                  << driver::scheme_name(schemes[s])
                  << ") — the loss window never opened, the comparison is vacuous\n";
        ok = false;
      }
    }
  }
  std::cout << "\n## a third death (proxy 7 at 0.65), no eviction pressure\n";
  driver::print_table(std::cout, rows);

  std::cout << "\ntracked/stranded is the post-run stripe census over surviving proxies:"
            << "\nobjects with any chunk still directory-resident / those below k chunks"
            << "\n(no longer reconstructible); healed counts acked re-stripe offers and"
            << "\nround_max_kb audits the per-round repair byte budget ("
            << kRepairBudget / 1024 << " KiB)\n";
  if (!driver::write_json_rows(json_path, json_rows)) return 1;
  if (!json_path.empty()) std::cout << "wrote " << json_path << "\n";
  return ok ? 0 : 1;
}
