// adc_perfbench --workload NAME --seed N --seconds S [--trace] [--spans PATH]
//
// Runs one benchmark workload and prints its raw measurements as one JSON
// document on stdout.  Exit code 2 on bad arguments, 1 on a failed run.
#include <sched.h>

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "perfbench.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

using namespace adc;

std::string build_json() {
  std::string sanitizer;
#if defined(__SANITIZE_ADDRESS__)
  sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  sanitizer = "thread";
#endif
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  return std::string("{\"compiler\": ") + perfbench::json_escape("gcc " __VERSION__) +
         ", \"build_type\": " + perfbench::json_escape(PERFBENCH_BUILD_TYPE) +
         ", \"cxx_flags\": " + perfbench::json_escape(PERFBENCH_CXX_FLAGS) +
         ", \"sanitizer\": " + perfbench::json_escape(sanitizer) +
         ", \"optimized\": " + (optimized ? "true" : "false") + "}";
}

/// Peak resident set (VmHWM) of this process in KiB; 0 if unreadable.
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  return 0.0;
}

/// Pins this process, and every thread it starts later, to the last CPU it
/// may run on; returns that CPU or -1.  On a shared VM the live cluster's
/// cross-CPU wakeups stall whenever the host deschedules one of the CPUs
/// (throughput fell fivefold for minutes at a time); on one CPU a slower
/// host costs a proportional share, as it does the simulator.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? last : -1;
}

std::string rows_json(const std::vector<perfbench::Fields>& rows) {
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += (i == 0 ? "" : ",\n  ") + perfbench::json_fields(rows[i]);
  }
  return out + "]";
}

std::string strings_json(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + perfbench::json_escape(values[i]);
  }
  return out + "]";
}

std::string numbers_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + perfbench::json_number(values[i]);
  }
  return out + "]";
}

bool parse_args(int argc, char** argv, perfbench::Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      options->trace = true;
    } else if (arg == "--workload" && has_value) {
      options->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      const auto seed = util::parse_int(argv[++i]);
      if (!seed || *seed < 0) return false;
      options->seed = static_cast<std::uint64_t>(*seed);
    } else if (arg == "--seconds" && has_value) {
      const auto seconds = util::parse_double(argv[++i]);
      if (!seconds || *seconds <= 0.0) return false;
      options->seconds = *seconds;
    } else if (arg == "--spans" && has_value) {
      options->spans_path = argv[++i];
    } else {
      return false;
    }
  }
  return perfbench::is_workload(options->workload);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse_args(argc, argv, &options)) {
    std::cerr << "usage: adc_perfbench --workload sim-adc-paper|sim-carp-erasure-crash|"
                 "live-adc-loopback --seed N --seconds S [--trace] [--spans PATH]\n";
    return 2;
  }
  // The crash workload logs one SWIM line per death per member; those
  // writes would land inside the timing.
  util::set_log_level(util::LogLevel::kError);
  const int cpu = pin_to_one_cpu();

  try {
    perfbench::SpanRecorder spans(options.trace);
    const perfbench::WorkloadOutput out = perfbench::run_workload(options, spans);
    perfbench::Fields layers;
    if (options.trace) layers = perfbench::run_layer_replays(out, spans);
    const double rss_kib = peak_rss_kib();

    if (!options.spans_path.empty()) {
      std::ofstream file(options.spans_path);
      file << spans.json() << "\n";
      if (!file) {
        std::cerr << "cannot write spans to " << options.spans_path << "\n";
        return 1;
      }
    }
    std::cout << "{\"workload\": " << perfbench::json_escape(options.workload)
              << ",\n \"seed\": " << options.seed << ",\n \"trace\": "
              << (options.trace ? "true" : "false") << ",\n \"cpu\": " << cpu
              << ",\n \"build\": " << build_json()
              << ",\n \"peak_rss_kib\": " << perfbench::json_number(rss_kib)
              << ",\n \"requests\": " << out.trace.size()
              << ",\n \"trace_gen_s\": " << numbers_json(out.trace_gen_s)
              << ",\n \"replays\": " << rows_json(out.replays)
              << ",\n \"traced_replays\": " << rows_json(out.traced_replays)
              << ",\n \"digests\": " << strings_json(out.digests)
              << ",\n \"traced_digests\": " << strings_json(out.traced_digests)
              << ",\n \"oracle\": " << perfbench::json_fields(out.oracle)
              << ",\n \"layers\": " << perfbench::json_fields(layers)
              << ",\n \"spans\": " << spans.json() << "}\n";
  } catch (const std::exception& e) {
    std::cerr << "adc_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
