// Replay a Squid access log through the proxy system — the bridge toward
// the paper's "real proxy system based on Squid" future work.
//
//   ./squid_replay /path/to/access.log [--scheme adc] [--limit 0]
//
// Without an argument the example fabricates a small demo log in-memory so
// it stays runnable out of the box.
#include <iostream>
#include <sstream>

#include "driver/experiment.h"
#include "driver/report.h"
#include "util/cli.h"
#include "util/rng.h"
#include "workload/squid_log.h"
#include "workload/url_space.h"

namespace {

using namespace adc;

/// Builds a plausible native-format demo log: Zipf-popular URLs, a few
/// POSTs and parse casualties mixed in.
std::string make_demo_log(std::size_t lines, std::uint64_t seed) {
  util::Rng rng(seed);
  workload::UrlSpace space(64);
  const util::ZipfSampler zipf(5000, 0.9);
  std::ostringstream out;
  double timestamp = 1'046'700'000.0;  // around the paper's publication
  for (std::size_t i = 0; i < lines; ++i) {
    timestamp += rng.uniform();
    const ObjectId object = zipf.sample(rng);
    const bool post = rng.chance(0.03);
    out << timestamp << ' ' << (10 + rng.below(400)) << " 10.0.0." << (1 + rng.below(250))
        << (post ? " TCP_MISS/200 " : " TCP_MISS/200 ") << (200 + rng.below(40000)) << ' '
        << (post ? "POST" : "GET") << ' ' << space.url_for(object)
        << " - DIRECT/origin text/html\n";
    if (rng.chance(0.01)) out << "corrupt line that should be skipped\n";
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  driver::ExperimentConfig config;
  workload::SquidLoadOptions options;
  std::size_t demo_lines = 80'000;
  util::CliParser cli("Replay a Squid access log through a distributed proxy system.");
  cli.choice("scheme", &config.scheme, driver::scheme_names(), "distributed-caching scheme")
      .bind("limit", &options.limit, "max requests to ingest (0 = all)")
      .bind("proxies", &config.proxies, "number of cooperating proxies")
      .bind("demo-lines", &demo_lines, "size of the fabricated demo log when no file is given");
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  workload::UrlInterner interner;
  workload::SquidLoadResult loaded;
  if (!cli.positional().empty()) {
    auto from_file = workload::load_squid_log_file(cli.positional().front(), interner, options);
    if (!from_file) {
      std::cerr << "cannot read " << cli.positional().front() << '\n';
      return 1;
    }
    loaded = std::move(*from_file);
    std::cout << "log: " << cli.positional().front() << '\n';
  } else {
    std::istringstream demo(make_demo_log(demo_lines, 11));
    loaded = workload::load_squid_log(demo, interner, options);
    std::cout << "log: (fabricated demo, " << demo_lines << " lines)\n";
  }

  std::cout << "ingested " << loaded.parsed << " requests (" << loaded.skipped
            << " lines skipped), " << interner.size() << " distinct URLs, "
            << interner.collisions() << " digest collisions\n\n";
  if (loaded.trace.empty()) {
    std::cerr << "nothing to replay\n";
    return 1;
  }

  // Tables sized to the log's working set: cache ~10% of distinct URLs.
  config.adc.single_table_size = std::max<std::size_t>(interner.size() / 5, 64);
  config.adc.multiple_table_size = config.adc.single_table_size;
  config.adc.caching_table_size = std::max<std::size_t>(interner.size() / 10, 32);
  config.ma_window = 2000;
  config.sample_every = 0;

  const driver::ExperimentResult result = driver::run_experiment(config, loaded.trace);
  driver::print_summary(std::cout, driver::scheme_name(config.scheme), result);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"proxy", "requests", "local_hits", "cached"});
  for (const auto& proxy : result.proxies) {
    rows.push_back({proxy.name, std::to_string(proxy.requests_received),
                    std::to_string(proxy.local_hits), std::to_string(proxy.cached_objects)});
  }
  driver::print_table(std::cout, rows);
  return 0;
}
