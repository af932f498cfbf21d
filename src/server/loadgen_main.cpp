// adc_loadgen — replay a workload trace against a running adcd cluster.
//
//   ./adc_loadgen --peer 0=127.0.0.1:7000 ... --peer 4=127.0.0.1:7004
//       --scale 0.01 --concurrency 4        (one command line)
//
// Reports hit rate, mean hops, throughput, latency percentiles (p50..p99.9)
// and the per-entry fairness ratio; hit-rate and mean-hops numbers are
// directly comparable to a simulator run over the same trace (see
// docs/RUNTIME.md).
//
// Besides the PolyMix trace, --workload selects the hostile scenarios from
// src/workload/adversarial.h — hash-flood (keys mined onto one CARP/ring/
// HRW owner), flash-crowd (one cold URL ramping to a configurable share of
// traffic) and diurnal (working-set rotation) — so the same adversarial
// suite the simulator benches run can be replayed against a live cluster.
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "server/loadgen.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "workload/adversarial.h"
#include "workload/polygraph.h"
#include "workload/trace.h"

int main(int argc, char** argv) {
  using namespace adc;

  server::LoadGenConfig config;
  std::string trace_path;
  std::string workload_kind = "polygraph";
  double scale = 0.01;
  std::uint64_t trace_seed = 42;
  workload::HashFloodConfig flood;
  workload::FlashCrowdConfig flash;
  workload::DiurnalConfig diurnal;
  std::size_t requests = 0;
  std::string json_path;

  util::CliParser cli("adc_loadgen — TCP load generator for an adcd cluster.");
  cli.bind("client-id", &config.client_id, "this client's node id (must not collide with daemons)")
      .bind("trace", &trace_path, "replay a saved trace file (.txt or binary)")
      .choice("workload", &workload_kind,
              {{"polygraph", "polygraph"}, {"flood", "flood"}, {"flash", "flash"},
               {"diurnal", "diurnal"}},
              "generated workload")
      .bind("scale", &scale, "generator scale vs the paper's 3.99M requests")
      .bind("trace-seed", &trace_seed, "generator seed")
      .choice("flood-scheme", &flood.scheme, workload::flood_scheme_names(),
              "flood: owner map to attack")
      .bind("flood-victim", &flood.victim, "flood: proxy index the mined keys collide onto")
      .bind("flood-fraction", &flood.flood_fraction,
            "flood: fraction of requests aimed at the victim", {0.0, 1.0})
      .bind("flood-keys", &flood.flood_keys, "flood: distinct mined keys in the flood set")
      .bind("flash-peak", &flash.peak_fraction, "flash: crowd share of traffic once ramped",
            {0.0, 1.0})
      .bind("flash-begin", &flash.ramp_begin, "flash: ramp start as a fraction of the trace",
            {0.0, 1.0})
      .bind("flash-window", &flash.ramp_window,
            "flash: ramp duration as a fraction of the trace", {0.0, 1.0})
      .bind("diurnal-populations", &diurnal.populations, "diurnal: rotating client populations")
      .bind("diurnal-cycles", &diurnal.cycles, "diurnal: day/night cycles across the trace")
      .bind("requests", &requests, "truncate the trace to N requests (0 = all)")
      .bind("concurrency", &config.concurrency, "requests kept in flight", {1, 1'000'000})
      .choice("entry", &config.entry,
              {{"rr", server::EntryChoice::kRoundRobin},
               {"round-robin", server::EntryChoice::kRoundRobin},
               {"random", server::EntryChoice::kRandom}},
              "entry proxy choice")
      .bind("seed", &config.seed, "seed for --entry random")
      .bind("idle-timeout", &config.idle_timeout_ms,
            "abort after this many ms without a reply (0 = never)")
      .bind("request-timeout", &config.request_timeout_ms,
            "per-request deadline in ms; expired requests count as failed (0 = off)")
      .bind("json", &json_path, "also write the report as a JSON artifact to this path")
      .multi_option("peer", "entry proxy as id=host:port");
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  // Flag hygiene: a workload-specific tuning flag paired with a workload
  // that ignores it is almost always a mistyped experiment, so fail loudly
  // instead of silently running something else.
  {
    const bool have_trace = !trace_path.empty();
    struct FlagGroup {
      const char* owner;  // the workload whose generator reads these flags
      std::vector<const char*> flags;
    };
    const std::vector<FlagGroup> groups = {
        {"flood", {"flood-scheme", "flood-victim", "flood-fraction", "flood-keys"}},
        {"flash", {"flash-peak", "flash-begin", "flash-window"}},
        {"diurnal", {"diurnal-populations", "diurnal-cycles"}},
    };
    for (const FlagGroup& group : groups) {
      for (const char* flag : group.flags) {
        if (!cli.given(flag)) continue;
        if (have_trace) {
          std::cerr << "--" << flag << " is a --workload " << group.owner
                    << " flag; it conflicts with --trace (a replayed trace file is "
                       "never regenerated)\n";
          return 1;
        }
        if (workload_kind != group.owner) {
          std::cerr << "--" << flag << " only applies to --workload " << group.owner
                    << " (got --workload " << workload_kind << ")\n";
          return 1;
        }
      }
    }
    if (have_trace && cli.given("workload")) {
      std::cerr << "--trace and --workload are mutually exclusive: a trace file "
                   "replays as-is\n";
      return 1;
    }
    if (have_trace && (cli.given("scale") || cli.given("trace-seed"))) {
      std::cerr << "--scale/--trace-seed configure the generator; they conflict "
                   "with --trace\n";
      return 1;
    }
  }

  std::string error;
  for (const std::string& spec : cli.values("peer")) {
    NodeId id = kInvalidNode;
    net::Endpoint endpoint;
    if (!net::parse_peer_spec(spec, &id, &endpoint, &error)) {
      std::cerr << error << '\n';
      return 1;
    }
    config.proxies[id] = endpoint;
  }
  if (config.proxies.empty()) {
    std::cerr << "at least one --peer is required\n" << cli.help_text();
    return 1;
  }

  workload::Trace trace;
  if (!trace_path.empty()) {
    const bool ok = util::ends_with(trace_path, ".txt")
                        ? workload::Trace::load_text(trace_path, &trace, &error)
                        : workload::Trace::load_binary(trace_path, &trace, &error);
    if (!ok) {
      std::cerr << "cannot load trace: " << error << '\n';
      return 1;
    }
  } else {
    // Hostile generators size themselves off the same 3.99M-request PolyMix
    // yardstick --scale already uses, so sim and live runs line up.
    const workload::PolygraphConfig paper_scale;
    const auto scaled_requests = static_cast<std::uint64_t>(
        scale * static_cast<double>(paper_scale.fill_requests + paper_scale.phase2_requests +
                                    paper_scale.phase3_requests));
    if (workload_kind == "polygraph") {
      auto poly = workload::PolygraphConfig::scaled(scale);
      poly.seed = trace_seed;
      trace = workload::generate_polygraph_trace(poly);
    } else if (workload_kind == "flood") {
      flood.proxies = static_cast<int>(config.proxies.size());
      flood.requests = scaled_requests;
      flood.seed = trace_seed;
      trace = workload::generate_hash_flood_trace(flood);
    } else if (workload_kind == "flash") {
      flash.requests = scaled_requests;
      flash.seed = trace_seed;
      trace = workload::generate_flash_crowd_trace(flash);
    } else {
      diurnal.requests = scaled_requests;
      diurnal.seed = trace_seed;
      trace = workload::generate_diurnal_trace(diurnal);
    }
  }
  std::vector<ObjectId> objects = trace.requests();
  if (requests != 0 && requests < objects.size()) objects.resize(requests);

  std::signal(SIGPIPE, SIG_IGN);

  server::LoadGenerator loadgen(std::move(config));
  if (!loadgen.connect(&error)) {
    std::cerr << error << '\n';
    return 1;
  }
  std::cout << "replaying " << objects.size() << " requests...\n";
  const server::LoadGenReport report = loadgen.run(objects);
  std::cout << report.text();

  if (!json_path.empty()) {
    // The artifact's header names its workload: a replayed trace file
    // reports as "trace", generated workloads by their generator name.
    const std::string workload_name = trace_path.empty() ? workload_kind : "trace";
    std::ofstream json_out(json_path);
    if (!json_out) {
      std::cerr << "cannot write JSON report to " << json_path << '\n';
      return 1;
    }
    json_out << report.json(workload_name);
    std::cout << "json report: " << json_path << "\n";
  }
  return report.timed_out ? 1 : 0;
}
