// adcd — one live cluster node.
//
// Hosts a single protocol agent (ADC proxy, CARP proxy, or the origin
// server) over the TCP wire protocol.  A five-proxy cluster is five adcd
// processes plus one origin, each told about the others with --peer:
//
//   ./adcd --id 5 --role origin --port 7005 &
//   for i in 0 1 2 3 4; do
//     ./adcd --id $i --port 700$i --origin 5
//       --peer 0=127.0.0.1:7000 --peer 1=127.0.0.1:7001
//       --peer 2=127.0.0.1:7002 --peer 3=127.0.0.1:7003
//       --peer 4=127.0.0.1:7004 --peer 5=127.0.0.1:7005 &
//   done
//   (one line per process; wrapped here for readability)
//
// SIGUSR1 dumps stats to stderr; SIGINT/SIGTERM dump and exit cleanly.
#include <algorithm>
#include <csignal>
#include <iostream>
#include <string>

#include "server/daemon.h"
#include "store/restripe.h"
#include "util/cli.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;

void on_terminate(int) { g_stop = 1; }
void on_usr1(int) { g_dump = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace adc;
  using server::DaemonRole;

  server::DaemonConfig config;
  // SWIM and repair timings are flags in milliseconds at live scale
  // (seconds-order detection, vs the simulator's sub-second virtual ticks);
  // the daemon's clock runs in microseconds.
  int swim_ping_ms = 1000;
  int swim_suspect_ms = 3000;
  int repair_ms = 2000;
  constexpr util::Range<int> kMillis{1, 3'600'000};

  util::CliParser cli("adcd — live ADC/CARP cluster node daemon.");
  cli.bind("id", &config.node_id, "this node's id")
      .choice("role", &config.role, server::daemon_role_names(), "protocol agent this node hosts")
      .bind("host", &config.listen.host, "listen address")
      .bind("port", &config.listen.port, "listen port (0 = ephemeral, printed on stdout)")
      .bind("origin", &config.origin_id, "node id of the origin server (required for proxies)")
      .bind("single", &config.adc.single_table_size, "ADC single-table entries")
      .bind("multiple", &config.adc.multiple_table_size, "ADC multiple-table entries")
      .bind("caching", &config.adc.caching_table_size, "ADC caching-table entries")
      .bind("max-forwards", &config.adc.max_forwards, "ADC search cutoff")
      .bind("cache-capacity", &config.carp_cache_capacity, "CARP per-proxy LRU capacity")
      .bind("seed", &config.seed, "random seed (perturbed by --id per daemon)")
      .bind("fault-drop", &config.fault_plan.drop_prob,
            "chaos: probability of dropping each outbound message", {0.0, 1.0})
      .bind("fault-dup", &config.fault_plan.dup_prob,
            "chaos: probability of duplicating each outbound message", {0.0, 1.0})
      .bind("fault-seed", &config.fault_plan.seed,
            "chaos: seed of the fault layer's private RNG (plus --id)")
      .bind("membership", &config.membership.swim.enabled,
            "enable the SWIM failure detector + anti-entropy")
      .bind("swim-ping-ms", &swim_ping_ms, "SWIM probe interval in milliseconds", kMillis)
      .bind("swim-suspect-ms", &swim_suspect_ms, "SWIM suspicion timeout in milliseconds",
            kMillis)
      .bind("repair-ms", &repair_ms, "anti-entropy round interval in milliseconds", kMillis)
      .bind("payload", &config.payload.enabled,
            "enable the payload store (bytes on every reply)")
      .bind("payload-seed", &config.payload.seed,
            "payload universe seed; must match cluster-wide")
      .bind("payload-budget", &config.payload.byte_budget,
            "per-proxy cache byte budget (0 = count-only)")
      .choice("cache-policy", &config.carp_policy, cache::policy_names(), "CARP eviction policy")
      .bind("erasure", &config.payload.erasure.enabled,
            "enable the erasure tier (needs --payload 1)")
      .bind("erasure-k", &config.payload.erasure.data_chunks,
            "erasure data chunks per stripe (RDP k)")
      .bind("erasure-dir-budget", &config.payload.erasure.directory_budget,
            "chunk-directory byte budget (0 = unlimited)")
      .bind("restripe", &config.payload.erasure.restripe,
            "proactive re-stripe repair after confirmed deaths (needs --erasure 1 and "
            "--membership 1)")
      .bind("repair-budget-bytes", &config.payload.erasure.repair_bytes_per_round,
            "chunk bytes a repair leader may offer per anti-entropy round (0 = unlimited)")
      .bind("repair-max-attempts", &config.payload.erasure.repair_max_attempts,
            "offers per repair item before it is abandoned",
            {1, store::kMaxRepairAttempts})
      .bind("egress-bytes-per-sec", &config.egress_bytes_per_sec,
            "token-bucket egress cap in accounted bytes/sec (0 = unpaced)")
      .bind("egress-burst-bytes", &config.egress_burst_bytes,
            "egress bucket capacity in bytes (0 = rate/20, floor 8 KiB)")
      .multi_option("peer", "cluster member as id=host:port; the origin too");
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  config.fault_plan.seed += static_cast<std::uint64_t>(config.node_id);
  if (config.membership.swim.enabled) {
    const SimTime ping_us = SimTime{swim_ping_ms} * 1000;
    const SimTime suspect_us = SimTime{swim_suspect_ms} * 1000;
    config.membership.swim.ping_interval = ping_us;
    config.membership.swim.ack_timeout = ping_us / 3;
    config.membership.swim.indirect_timeout = ping_us / 3;
    config.membership.swim.suspect_timeout = suspect_us;
    config.membership.swim.dead_probe_interval = 2 * suspect_us;
    config.membership.swim.seed = config.seed;
    config.membership.repair.interval = SimTime{repair_ms} * 1000;
  }

  std::string error;
  for (const std::string& spec : cli.values("peer")) {
    NodeId id = kInvalidNode;
    net::Endpoint endpoint;
    if (!net::parse_peer_spec(spec, &id, &endpoint, &error)) {
      std::cerr << error << '\n';
      return 1;
    }
    if (id != config.node_id) config.peers[id] = endpoint;
    // Membership = every peer that is not the origin, plus ourselves.
    if (id != config.origin_id) config.proxy_ids.push_back(id);
  }
  if (config.role != DaemonRole::kOrigin) {
    bool listed = false;
    for (const NodeId id : config.proxy_ids) listed = listed || id == config.node_id;
    if (!listed) config.proxy_ids.push_back(config.node_id);
    std::sort(config.proxy_ids.begin(), config.proxy_ids.end());
  }
  if (const std::string invalid = config.validate(); !invalid.empty()) {
    std::cerr << invalid << '\n';
    return 1;
  }

  server::NodeDaemon daemon(std::move(config));
  const std::uint16_t port = daemon.bind(&error);
  if (port == 0) {
    std::cerr << "bind failed: " << error << '\n';
    return 1;
  }
  std::cout << "adcd node " << daemon.node_id() << " listening on port " << port << std::endl;

  std::signal(SIGINT, on_terminate);
  std::signal(SIGTERM, on_terminate);
  std::signal(SIGUSR1, on_usr1);
  std::signal(SIGPIPE, SIG_IGN);

  daemon.set_tick([&daemon]() {
    if (g_dump != 0) {
      g_dump = 0;
      std::cerr << daemon.stats_text();
    }
    if (g_stop != 0) daemon.stop();
  });
  daemon.run();

  std::cerr << daemon.stats_text();
  return 0;
}
