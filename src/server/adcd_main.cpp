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
#include "store/rdp_coding.h"
#include "util/cli.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;

void on_terminate(int) { g_stop = 1; }
void on_usr1(int) { g_dump = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace adc;

  util::CliParser cli("adcd — live ADC/CARP cluster node daemon.");
  cli.option("id", "0", "this node's id")
      .option("role", "adc", "adc | carp | origin")
      .option("host", "127.0.0.1", "listen address")
      .option("port", "0", "listen port (0 = ephemeral, printed on stdout)")
      .option("origin", "-1", "node id of the origin server (required for proxies)")
      .option("single", "20000", "ADC single-table entries")
      .option("multiple", "20000", "ADC multiple-table entries")
      .option("caching", "10000", "ADC caching-table entries")
      .option("max-forwards", "8", "ADC search cutoff")
      .option("cache-capacity", "10000", "CARP per-proxy LRU capacity")
      .option("seed", "1", "random seed (perturbed by --id per daemon)")
      .option("fault-drop", "0", "chaos: probability of dropping each outbound message")
      .option("fault-dup", "0", "chaos: probability of duplicating each outbound message")
      .option("fault-seed", "64023", "chaos: seed of the fault layer's private RNG")
      .option("membership", "0", "1 = enable the SWIM failure detector + anti-entropy")
      .option("swim-ping-ms", "1000", "SWIM probe interval in milliseconds")
      .option("swim-suspect-ms", "3000", "SWIM suspicion timeout in milliseconds")
      .option("repair-ms", "2000", "anti-entropy round interval in milliseconds")
      .option("payload", "0", "1 = enable the payload store (bytes on every reply)")
      .option("payload-seed", "97", "payload universe seed; must match cluster-wide")
      .option("payload-budget", "0", "per-proxy cache byte budget (0 = count-only)")
      .option("cache-policy", "lru",
              "CARP eviction policy: lru | lfu | gdsf | size-lru")
      .option("erasure", "0", "1 = enable the erasure tier (needs --payload 1)")
      .option("erasure-k", "3", "erasure data chunks per stripe (RDP k)")
      .option("erasure-dir-budget", "0", "chunk-directory byte budget (0 = unlimited)")
      .option("restripe", "0",
              "1 = proactive re-stripe repair after confirmed deaths (needs "
              "--erasure 1 and --membership 1)")
      .option("repair-budget-bytes", "262144",
              "chunk bytes a repair leader may offer per anti-entropy round "
              "(0 = unlimited)")
      .option("repair-max-attempts", "5",
              "offers per repair item before it is abandoned")
      .option("egress-bytes-per-sec", "0",
              "token-bucket egress cap in accounted bytes/sec (0 = unpaced)")
      .option("egress-burst-bytes", "0",
              "egress bucket capacity in bytes (0 = rate/20, floor 8 KiB)")
      .multi_option("peer", "cluster member as id=host:port; the origin too");
  std::string error;
  if (!cli.parse(argc, argv, &error)) {
    std::cerr << error << '\n' << cli.help_text();
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  const auto& options = cli.config();

  server::DaemonConfig config;
  config.node_id = static_cast<NodeId>(options.get_int("id", 0));
  if (!server::parse_daemon_role(options.get_string("role", "adc"), &config.role)) {
    std::cerr << "unknown role '" << options.get_string("role", "") << "'\n";
    return 1;
  }
  config.listen.host = options.get_string("host", "127.0.0.1");
  config.listen.port = static_cast<std::uint16_t>(options.get_int("port", 0));
  config.origin_id = static_cast<NodeId>(options.get_int("origin", -1));
  config.adc.single_table_size = static_cast<std::size_t>(options.get_int("single", 20000));
  config.adc.multiple_table_size = static_cast<std::size_t>(options.get_int("multiple", 20000));
  config.adc.caching_table_size = static_cast<std::size_t>(options.get_int("caching", 10000));
  config.adc.max_forwards = static_cast<int>(options.get_int("max-forwards", 8));
  config.carp_cache_capacity =
      static_cast<std::size_t>(options.get_int("cache-capacity", 10000));
  config.seed = static_cast<std::uint64_t>(options.get_int("seed", 1));
  config.fault_plan.drop_prob = options.get_double("fault-drop", 0.0);
  config.fault_plan.dup_prob = options.get_double("fault-dup", 0.0);
  config.fault_plan.seed = static_cast<std::uint64_t>(options.get_int("fault-seed", 0x0fa17)) +
                           static_cast<std::uint64_t>(config.node_id);
  config.carp_policy = cache::parse_policy(options.get_string("cache-policy", "lru"));

  if (options.get_int("payload", 0) != 0) {
    config.payload.enabled = true;
    config.payload.seed = static_cast<std::uint64_t>(options.get_int("payload-seed", 97));
    config.payload.byte_budget =
        static_cast<std::uint64_t>(options.get_int("payload-budget", 0));
    if (options.get_int("erasure", 0) != 0) {
      config.payload.erasure.enabled = true;
      // Checked here, not by an assert: release builds must refuse a stripe
      // the erasure tier would otherwise silently clamp.
      const auto k = options.get_int("erasure-k", 3);
      if (k < store::RdpCode::kMinDataChunks || k > store::RdpCode::kMaxDataChunks) {
        std::cerr << "--erasure-k must be in [" << store::RdpCode::kMinDataChunks << ", "
                  << store::RdpCode::kMaxDataChunks << "], got " << k << '\n';
        return 1;
      }
      config.payload.erasure.data_chunks = static_cast<int>(k);
      config.payload.erasure.directory_budget =
          static_cast<std::uint64_t>(options.get_int("erasure-dir-budget", 0));
      config.payload.erasure.restripe = options.get_int("restripe", 0) != 0;
      config.payload.erasure.repair_bytes_per_round =
          static_cast<std::uint64_t>(options.get_int("repair-budget-bytes", 256 * 1024));
      config.payload.erasure.repair_max_attempts =
          static_cast<int>(options.get_int("repair-max-attempts", 5));
    } else if (options.get_int("restripe", 0) != 0) {
      std::cerr << "--restripe 1 needs --erasure 1\n";
      return 1;
    }
  } else if (options.get_int("erasure", 0) != 0) {
    std::cerr << "--erasure 1 needs --payload 1\n";
    return 1;
  }
  if (options.get_int("restripe", 0) != 0 && options.get_int("membership", 0) == 0) {
    std::cerr << "--restripe 1 needs --membership 1 (deaths come from SWIM)\n";
    return 1;
  }

  config.egress_bytes_per_sec =
      static_cast<std::uint64_t>(options.get_int("egress-bytes-per-sec", 0));
  config.egress_burst_bytes =
      static_cast<std::uint64_t>(options.get_int("egress-burst-bytes", 0));

  if (options.get_int("membership", 0) != 0) {
    // The daemon's clock runs in microseconds; flags are milliseconds at
    // live scale (seconds-order detection, vs the simulator's sub-second
    // virtual ticks).
    const SimTime ping_us = options.get_int("swim-ping-ms", 1000) * 1000;
    const SimTime suspect_us = options.get_int("swim-suspect-ms", 3000) * 1000;
    config.membership.swim.enabled = true;
    config.membership.swim.ping_interval = ping_us;
    config.membership.swim.ack_timeout = ping_us / 3;
    config.membership.swim.indirect_timeout = ping_us / 3;
    config.membership.swim.suspect_timeout = suspect_us;
    config.membership.swim.dead_probe_interval = 2 * suspect_us;
    config.membership.swim.seed = config.seed;
    config.membership.repair.interval = options.get_int("repair-ms", 2000) * 1000;
  }

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
  if (config.role != server::DaemonRole::kOrigin) {
    bool listed = false;
    for (const NodeId id : config.proxy_ids) listed = listed || id == config.node_id;
    if (!listed) config.proxy_ids.push_back(config.node_id);
    std::sort(config.proxy_ids.begin(), config.proxy_ids.end());
    if (config.origin_id < 0) {
      std::cerr << "proxies need --origin\n";
      return 1;
    }
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
