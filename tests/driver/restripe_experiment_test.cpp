// Proactive re-stripe repair, end-to-end through the simulator: repair-off
// runs stay bit-identical to the repair-free build, and repair-on runs
// close the multi-death data-loss window the post-run stripe census
// measures.
#include <gtest/gtest.h>

#include <algorithm>

#include "driver/experiment.h"
#include "fault/fault_plan.h"
#include "workload/polygraph.h"

namespace adc::driver {
namespace {

workload::Trace small_trace() {
  workload::PolygraphConfig config;
  config.fill_requests = 1500;
  config.phase2_requests = 2500;
  config.phase3_requests = 2000;
  config.hot_set_size = 150;
  config.seed = 3;
  return workload::generate_polygraph_trace(config);
}

// 8 proxies against a k=3 (width 5) stripe: every stripe has 3 members
// outside it, so replacement owners exist even after several deaths.
ExperimentConfig erasure_config(Scheme scheme) {
  ExperimentConfig config;
  config.scheme = scheme;
  config.proxies = 8;
  config.adc.single_table_size = 200;
  config.adc.multiple_table_size = 200;
  config.adc.caching_table_size = 100;
  config.ma_window = 200;
  config.sample_every = 500;
  config.payload.enabled = true;
  config.payload.seed = 97;
  config.payload.erasure.enabled = true;
  config.membership.swim.enabled = true;
  return config;
}

bool equal_results(const ExperimentResult& a, const ExperimentResult& b) {
  return a.summary.completed == b.summary.completed && a.summary.hits == b.summary.hits &&
         a.summary.total_hops == b.summary.total_hops && a.messages == b.messages &&
         a.events == b.events && a.sim_end_time == b.sim_end_time &&
         a.origin_served == b.origin_served;
}

/// Permanent crash of `node` at `fraction` of the probed end time.
fault::CrashWindow crash_at(const ExperimentResult& probe, NodeId node, double fraction) {
  fault::CrashWindow window;
  window.node = node;
  window.at = static_cast<SimTime>(static_cast<double>(probe.sim_end_time) * fraction);
  window.restart = kSimTimeMax;
  window.flush_state = true;
  return window;
}

TEST(RestripeExperiment, DisabledRepairIsInvisible) {
  // With restripe off the repair knobs must not leak into the trajectory:
  // a perturbed-knob run is bit-identical, even across a confirmed death.
  const auto trace = small_trace();
  ExperimentConfig plain = erasure_config(Scheme::kCarp);
  const auto probe = run_experiment(plain, trace);
  plain.fault_plan.crashes.push_back(crash_at(probe, 2, 0.35));
  plain.request_timeout =
      std::max<SimTime>(static_cast<SimTime>(probe.latency_p99 * 20.0), 1000);

  ExperimentConfig perturbed = plain;
  perturbed.payload.erasure.repair_bytes_per_round = 7;  // differs, restripe stays false
  perturbed.payload.erasure.repair_max_attempts = 99;

  const auto a = run_experiment(plain, trace);
  const auto b = run_experiment(perturbed, trace);
  EXPECT_TRUE(equal_results(a, b));
  EXPECT_EQ(a.store.stripes_healed, 0u);
  EXPECT_EQ(a.store.repair_offers, 0u);
  EXPECT_EQ(a.store.repair_rounds, 0u);
}

class RestripeHealTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(RestripeHealTest, ThreeDeathsStrandWithoutRepairAndHealWithIt) {
  // Width-5 stripes survive two deaths arithmetically (3 chunks = k remain)
  // but a third death strands every stripe containing all three victims.
  // Proactive repair re-homes chunks after each confirmed death, so the
  // healed layout never drops below full width for long — by the end of
  // the run no stripe is below k.
  const auto trace = small_trace();
  ExperimentConfig config = erasure_config(GetParam());
  const auto probe = run_experiment(config, trace);
  config.fault_plan.crashes.push_back(crash_at(probe, 2, 0.25));
  config.fault_plan.crashes.push_back(crash_at(probe, 5, 0.45));
  config.fault_plan.crashes.push_back(crash_at(probe, 7, 0.65));
  config.request_timeout =
      std::max<SimTime>(static_cast<SimTime>(probe.latency_p99 * 20.0), 1000);

  const auto off = run_experiment(config, trace);
  EXPECT_GT(off.membership.deaths, 0u);
  EXPECT_GT(off.store.stripe_objects_tracked, 0u);
  // The census over the five survivors finds stripes below k: the objects
  // whose stripe contained all three victims are no longer reconstructible.
  EXPECT_GT(off.store.stripes_stranded, 0u);
  EXPECT_EQ(off.store.stripes_healed, 0u);

  config.payload.erasure.restripe = true;
  config.payload.erasure.repair_bytes_per_round = 128 * 1024;
  const auto on = run_experiment(config, trace);
  EXPECT_GT(on.store.stripes_healed, 0u);
  EXPECT_GT(on.store.repair_adopted, 0u);
  EXPECT_GT(on.store.repair_offers, 0u);
  EXPECT_GT(on.store.repair_rounds, 0u);
  EXPECT_GT(on.store.repair_bytes, 0u);
  // Byte-budgeted pacing: no round ever exceeded the configured budget
  // (every chunk is at most ~85 KiB, under the 128 KiB budget).
  EXPECT_LE(on.store.repair_round_bytes_max, 128u * 1024u);
  // The healed cluster tracks the same object universe with nothing lost.
  EXPECT_GT(on.store.stripe_objects_tracked, 0u);
  EXPECT_EQ(on.store.stripes_stranded, 0u);

  // Deterministic end to end: deaths, elections, rounds and census.
  const auto again = run_experiment(config, trace);
  EXPECT_TRUE(equal_results(on, again));
  EXPECT_EQ(on.store.stripes_healed, again.store.stripes_healed);
  EXPECT_EQ(on.store.repair_bytes, again.store.repair_bytes);
  EXPECT_EQ(on.store.repair_rounds, again.store.repair_rounds);
  EXPECT_EQ(on.store.stripes_stranded, again.store.stripes_stranded);
}

INSTANTIATE_TEST_SUITE_P(Schemes, RestripeHealTest,
                         ::testing::Values(Scheme::kAdc, Scheme::kCarp));

TEST(RestripeExperiment, TwoDeathsStayReconstructibleAndRepairRestoresWidth) {
  // The two-death arithmetic: width-5 stripes losing two members keep
  // exactly k = 3 chunks, so neither run strands anything — but only the
  // repaired run closes the window (its stripes are back at full width;
  // the unrepaired ones are one further loss from being unrecoverable,
  // which ThreeDeathsStrandWithoutRepairAndHealWithIt demonstrates).
  const auto trace = small_trace();
  ExperimentConfig config = erasure_config(Scheme::kCarp);
  const auto probe = run_experiment(config, trace);
  config.fault_plan.crashes.push_back(crash_at(probe, 2, 0.3));
  config.fault_plan.crashes.push_back(crash_at(probe, 5, 0.55));
  config.request_timeout =
      std::max<SimTime>(static_cast<SimTime>(probe.latency_p99 * 20.0), 1000);

  const auto off = run_experiment(config, trace);
  config.payload.erasure.restripe = true;
  config.payload.erasure.repair_bytes_per_round = 128 * 1024;
  const auto on = run_experiment(config, trace);

  EXPECT_EQ(off.store.stripes_stranded, 0u);
  EXPECT_EQ(off.store.stripes_healed, 0u);
  EXPECT_EQ(on.store.stripes_stranded, 0u);
  EXPECT_GT(on.store.stripes_healed, 0u);
  EXPECT_GT(on.store.repair_adopted, 0u);
  EXPECT_LE(on.store.repair_round_bytes_max, 128u * 1024u);
  // Repair never blocks the workload: both runs resolve every request
  // (completed or reclaimed by its deadline after a crash ate it).
  EXPECT_GT(on.summary.completed, 0u);
  EXPECT_GT(off.summary.completed, 0u);
}

TEST(RestripeExperiment, WideStripeCensusSeesEveryChunkIndex) {
  // The stripe census ORs chunk indexes into 64-bit masks.  A k beyond the
  // RDP cap is clamped to 62 (a 64-chunk stripe), so a healthy run with
  // enough proxies tracks every object and strands none; unclamped, every
  // index past 63 went uncounted and every object read as stranded.
  workload::PolygraphConfig trace_config;
  trace_config.fill_requests = 300;
  trace_config.phase2_requests = 300;
  trace_config.phase3_requests = 200;
  trace_config.hot_set_size = 50;
  trace_config.seed = 3;
  const auto trace = workload::generate_polygraph_trace(trace_config);
  ExperimentConfig config = erasure_config(Scheme::kCarp);
  config.proxies = 70;
  config.membership.swim.enabled = false;
  config.payload.erasure.data_chunks = 65;
  const auto result = run_experiment(config, trace);
  EXPECT_EQ(result.summary.completed, trace.size());
  EXPECT_GT(result.store.stripes_registered, 0u);
  EXPECT_GT(result.store.stripe_objects_tracked, 0u);
  EXPECT_EQ(result.store.stripes_stranded, 0u);
}

}  // namespace
}  // namespace adc::driver
