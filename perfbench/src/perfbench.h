// The repository benchmark binary: runs one workload against the repo's
// libraries and prints raw measurements as one JSON document on stdout.
// run.py turns them into the named metrics, checks correctness and
// aggregates; this binary only measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "driver/experiment.h"
#include "workload/trace.h"

namespace adc::perfbench {

// ---- Minimal JSON output ----------------------------------------------------

/// Ordered numeric fields of one record (a replay, a layer summary).
using Fields = std::vector<std::pair<std::string, double>>;

std::string json_escape(std::string_view text);
std::string json_number(double value);
std::string json_fields(const Fields& fields);

// ---- Spans ------------------------------------------------------------------

/// One timed call into a module, recorded by the benchmark around the
/// module's public function.  `count` is the number of operations the span
/// covers (1 for a single call, N for a replay loop of N calls).
struct Span {
  std::string name;
  int parent = -1;  // index into the recorder's spans, -1 at top level
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 1;
};

/// Keeps spans in memory; they are written out once, when the run ends.
/// Disabled, it records nothing and costs one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Opens a span under the innermost open one; returns its index or -1.
  int open(std::string name);
  void close(int index, std::uint64_t count = 1);

  std::string json() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes with `count` on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name)
      : recorder_(recorder), index_(recorder.open(std::move(name))) {}
  ~ScopedSpan() { recorder_.close(index_, count_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(std::uint64_t count) noexcept { count_ = count; }

 private:
  SpanRecorder& recorder_;
  int index_;
  std::uint64_t count_ = 1;
};

std::int64_t now_ns();
double seconds_since(std::chrono::steady_clock::time_point start);

// ---- Workloads --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

/// What a workload run hands back to main(): the raw records run.py
/// aggregates, plus what the per-layer replays need to mirror it.
struct WorkloadOutput {
  std::vector<double> trace_gen_s;  // one per trace generation
  std::vector<Fields> replays;      // measured (untraced) replays
  std::vector<Fields> traced_replays;  // trace mode only
  std::vector<std::string> digests;        // non-timing outputs, per replay
  std::vector<std::string> traced_digests;
  Fields oracle;  // live only: run_experiment on the same trace

  /// Inputs of the per-layer replays.
  workload::Trace trace;
  driver::ExperimentConfig config;  // the workload's sim config (or oracle's)
  std::uint64_t events = 0;         // events of one sim replay
  int hops_p50 = 1, hops_p95 = 1, hops_max = 1;
  double frames_per_req = 0.0;  // messages (sim) or frames (live) per request
};

bool is_workload(std::string_view name);

/// Runs the measured window (and, in trace mode, the traced window).
WorkloadOutput run_workload(const Options& options, SpanRecorder& spans);

/// Per-layer replays of the workload's inputs through each module's public
/// functions, timed with spans; returns the derived layer fields.
Fields run_layer_replays(const WorkloadOutput& out, SpanRecorder& spans);

/// Stable digest of every non-timing output of a sim run.
std::string result_digest(const driver::ExperimentResult& result);

}  // namespace adc::perfbench
