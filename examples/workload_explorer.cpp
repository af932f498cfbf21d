// Workload explorer: generate, inspect, save and reload request traces —
// the data side of the reproduction as a standalone tool.
//
//   ./workload_explorer --model polymix --scale 0.01 --save /tmp/t.bin
//   ./workload_explorer --load /tmp/t.bin
//   ./workload_explorer --model wpb --requests 100000 --recency 0.6
//
// Prints the phase structure, recurrence, popularity skew (top-k request
// shares) and inter-reference distances — the knobs that decide how every
// caching scheme in this repository performs.
#include <algorithm>
#include <iostream>
#include <map>
#include <unordered_map>

#include "driver/report.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "workload/polygraph.h"
#include "workload/wpb.h"

namespace {

using namespace adc;

void describe(const workload::Trace& trace) {
  const auto stats = trace.stats();
  std::cout << "requests           " << util::with_thousands(stats.requests) << '\n'
            << "unique objects     " << util::with_thousands(stats.unique_objects) << '\n'
            << "recurrence rate    " << driver::fmt(stats.recurrence_rate, 4) << '\n'
            << "phase boundaries   fill_end=" << trace.phases().fill_end
            << " phase2_end=" << trace.phases().phase2_end << '\n';

  // Popularity skew: share of all requests taken by the top-k objects.
  std::unordered_map<ObjectId, std::uint64_t> counts;
  for (ObjectId object : trace.requests()) ++counts[object];
  std::vector<std::uint64_t> frequencies;
  frequencies.reserve(counts.size());
  for (const auto& [object, count] : counts) frequencies.push_back(count);
  std::sort(frequencies.rbegin(), frequencies.rend());
  const auto share = [&](std::size_t k) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < std::min(k, frequencies.size()); ++i) sum += frequencies[i];
    return static_cast<double>(sum) / static_cast<double>(trace.size());
  };
  std::cout << "top-10 share       " << driver::fmt(share(10), 4) << '\n'
            << "top-100 share      " << driver::fmt(share(100), 4) << '\n'
            << "top-1000 share     " << driver::fmt(share(1000), 4) << '\n';

  // Median inter-reference distance (temporal locality).
  std::unordered_map<ObjectId, std::uint64_t> last_seen;
  std::vector<std::uint64_t> distances;
  for (std::uint64_t i = 0; i < trace.size(); ++i) {
    const auto it = last_seen.find(trace[i]);
    if (it != last_seen.end()) distances.push_back(i - it->second);
    last_seen[trace[i]] = i;
  }
  if (!distances.empty()) {
    std::nth_element(distances.begin(), distances.begin() + distances.size() / 2,
                     distances.end());
    std::cout << "median reuse dist  " << distances[distances.size() / 2] << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string model = "polymix";
  double scale = 0.01;
  workload::WpbConfig wpb;
  wpb.requests = 100'000;
  std::uint64_t seed = 42;
  std::string save;
  std::string load;
  util::CliParser cli("Generate, inspect, save and reload request traces.");
  cli.choice("model", &model, {{"polymix", "polymix"}, {"wpb", "wpb"}}, "trace generator")
      .bind("scale", &scale, "polymix: scale vs the paper's 3.99M requests")
      .bind("requests", &wpb.requests, "wpb: trace length")
      .bind("recency", &wpb.recency_probability, "wpb: re-reference probability", {0.0, 1.0})
      .bind("stack", &wpb.stack_depth, "wpb: LRU stack depth")
      .bind("seed", &seed, "generator seed")
      .bind("save", &save, "write the trace (.txt = text, anything else = binary)")
      .bind("load", &load, "load a previously saved trace instead of generating");
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  workload::Trace trace;
  if (!load.empty()) {
    std::string load_error;
    const bool ok = util::ends_with(load, ".txt")
                        ? workload::Trace::load_text(load, &trace, &load_error)
                        : workload::Trace::load_binary(load, &trace, &load_error);
    if (!ok) {
      std::cerr << "cannot load " << load << ": " << load_error << '\n';
      return 1;
    }
    std::cout << "loaded " << load << "\n\n";
  } else if (model == "wpb") {
    wpb.seed = seed;
    trace = workload::generate_wpb_trace(wpb);
    std::cout << "generated WPB-style trace\n\n";
  } else {
    auto config = workload::PolygraphConfig::scaled(scale);
    config.seed = seed;
    trace = workload::generate_polygraph_trace(config);
    std::cout << "generated PolyMix-style trace\n\n";
  }

  describe(trace);

  if (!save.empty()) {
    const bool ok = util::ends_with(save, ".txt") ? trace.save_text(save)
                                                  : trace.save_binary(save);
    if (!ok) {
      std::cerr << "cannot write " << save << '\n';
      return 1;
    }
    std::cout << "\nsaved to " << save << '\n';
  }
  return 0;
}
