// Socket-free checks of how adcd wires its agent: a NodeDaemon is built
// (never bound or run) and inspected.  hosted() must be the protocol agent
// itself — never the membership wrapper — because harnesses dynamic_cast
// it to read agent counters, and the detector and erasure tier must be
// reachable whenever their layers are on.
#include "server/daemon.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/adc_proxy.h"
#include "proxy/hashing_proxy.h"
#include "proxy/origin_server.h"
#include "store/erasure_tier.h"

namespace adc::server {
namespace {

DaemonConfig daemon_config(DaemonRole role) {
  DaemonConfig config;
  config.node_id = 1;
  config.role = role;
  config.proxy_ids = {0, 1, 2, 3, 4};
  config.origin_id = 5;
  return config;
}

TEST(DaemonWiring, CarpWithEveryLayerHostsTheAgentInsideTheWrapper) {
  DaemonConfig config = daemon_config(DaemonRole::kCarpProxy);
  config.membership.swim.enabled = true;
  config.payload.enabled = true;
  config.payload.erasure.enabled = true;
  config.payload.erasure.data_chunks = 3;
  config.payload.erasure.restripe = true;
  NodeDaemon daemon(config);

  EXPECT_NE(dynamic_cast<proxy::HashingProxy*>(&daemon.hosted()), nullptr);
  ASSERT_NE(daemon.detector(), nullptr);
  EXPECT_EQ(daemon.detector()->alive_peers().size(), 4u);  // every proxy but itself
  ASSERT_NE(daemon.hosted_tier(), nullptr);
  EXPECT_TRUE(daemon.hosted_tier()->restripe_enabled());
  EXPECT_EQ(daemon.membership_epoch(), 0u);

  // The role block reads the agent's own counters through hosted().
  const std::string text = daemon.stats_text();
  EXPECT_EQ(text.rfind("adcd node 1 (carp)\n", 0), 0u) << text;
  EXPECT_NE(text.find("membership_epoch=0"), std::string::npos) << text;
  EXPECT_NE(text.find("requests_received=0 local_hits=0 forwards_to_owner=0"),
            std::string::npos)
      << text;
}

TEST(DaemonWiring, AdcWithMembershipHostsTheAdcAgent) {
  DaemonConfig config = daemon_config(DaemonRole::kAdcProxy);
  config.membership.swim.enabled = true;
  NodeDaemon daemon(config);
  EXPECT_NE(dynamic_cast<core::AdcProxy*>(&daemon.hosted()), nullptr);
  EXPECT_NE(daemon.detector(), nullptr);
  EXPECT_EQ(daemon.hosted_tier(), nullptr);  // no payload store
}

TEST(DaemonWiring, AdcWithoutMembershipHostsTheBareAgent) {
  NodeDaemon daemon(daemon_config(DaemonRole::kAdcProxy));
  EXPECT_NE(dynamic_cast<core::AdcProxy*>(&daemon.hosted()), nullptr);
  EXPECT_EQ(daemon.detector(), nullptr);
  EXPECT_EQ(daemon.hosted_tier(), nullptr);
  EXPECT_EQ(daemon.fault_stats().entries_invalidated, 0u);
}

TEST(DaemonWiring, OriginIsNeverAMember) {
  DaemonConfig config = daemon_config(DaemonRole::kOrigin);
  config.node_id = 5;
  config.membership.swim.enabled = true;
  NodeDaemon daemon(config);
  EXPECT_NE(dynamic_cast<proxy::OriginServer*>(&daemon.hosted()), nullptr);
  EXPECT_EQ(daemon.detector(), nullptr);
  EXPECT_EQ(daemon.hosted_tier(), nullptr);
}

// DaemonConfig::validate() runs in every build: adcd prints its message and
// exits 1, and an in-process NodeDaemon refuses the config outright.
TEST(DaemonConfigValidate, DefaultProxyConfigWithAnOriginIsValid) {
  EXPECT_EQ(daemon_config(DaemonRole::kAdcProxy).validate(), "");
  DaemonConfig origin = daemon_config(DaemonRole::kOrigin);
  origin.origin_id = kInvalidNode;  // the origin names no upstream
  EXPECT_EQ(origin.validate(), "");
}

TEST(DaemonConfigValidate, ErasureNeedsPayload) {
  DaemonConfig config = daemon_config(DaemonRole::kCarpProxy);
  config.payload.erasure.enabled = true;
  EXPECT_EQ(config.validate(), "--erasure 1 needs --payload 1");
}

TEST(DaemonConfigValidate, DataChunksOutsideRdpRange) {
  DaemonConfig config = daemon_config(DaemonRole::kCarpProxy);
  config.payload.enabled = true;
  config.payload.erasure.enabled = true;
  config.payload.erasure.data_chunks = 1;
  EXPECT_EQ(config.validate(), "--erasure-k must be in [2, 62], got 1");
  config.payload.erasure.data_chunks = 65;
  EXPECT_EQ(config.validate(), "--erasure-k must be in [2, 62], got 65");
  config.payload.erasure.data_chunks = 62;
  EXPECT_EQ(config.validate(), "");
  // The stripe width only matters while the tier is on.
  config.payload.erasure.enabled = false;
  config.payload.erasure.data_chunks = 1;
  EXPECT_EQ(config.validate(), "");
}

TEST(DaemonConfigValidate, RepairMaxAttemptsOutsideItsRange) {
  DaemonConfig config = daemon_config(DaemonRole::kCarpProxy);
  config.payload.erasure.repair_max_attempts = 0;
  EXPECT_EQ(config.validate(), "--repair-max-attempts must be in [1, 255], got 0");
  config.payload.erasure.repair_max_attempts = 256;
  EXPECT_EQ(config.validate(), "--repair-max-attempts must be in [1, 255], got 256");
  config.payload.erasure.repair_max_attempts = 255;
  EXPECT_EQ(config.validate(), "");
}

TEST(DaemonConfigValidate, RestripeNeedsErasure) {
  DaemonConfig config = daemon_config(DaemonRole::kCarpProxy);
  config.payload.enabled = true;
  config.membership.swim.enabled = true;
  config.payload.erasure.restripe = true;
  EXPECT_EQ(config.validate(), "--restripe 1 needs --erasure 1");
}

TEST(DaemonConfigValidate, RestripeNeedsMembership) {
  DaemonConfig config = daemon_config(DaemonRole::kCarpProxy);
  config.payload.enabled = true;
  config.payload.erasure.enabled = true;
  config.payload.erasure.restripe = true;
  EXPECT_EQ(config.validate(), "--restripe 1 needs --membership 1 (deaths come from SWIM)");
}

TEST(DaemonConfigValidate, ProxyRolesNeedAnOrigin) {
  for (const DaemonRole role : {DaemonRole::kAdcProxy, DaemonRole::kCarpProxy}) {
    DaemonConfig config = daemon_config(role);
    config.origin_id = kInvalidNode;
    EXPECT_EQ(config.validate(), "proxies need --origin");
  }
}

// A cache of capacity 0 would hold every object it is given.
TEST(DaemonConfigValidate, ZeroCacheCapacity) {
  DaemonConfig carp = daemon_config(DaemonRole::kCarpProxy);
  carp.carp_cache_capacity = 0;
  EXPECT_EQ(carp.validate(), "--cache-capacity must be at least 1 for --role carp");
  DaemonConfig adc = daemon_config(DaemonRole::kAdcProxy);
  adc.carp_cache_capacity = 0;  // unused by an ADC proxy
  EXPECT_EQ(adc.validate(), "");
  adc.adc.caching_table_size = 0;  // selective caching: no caching table
  EXPECT_EQ(adc.validate(), "");
  adc.adc.selective_caching = false;
  EXPECT_EQ(adc.validate(), "--caching must be at least 1 with selective caching off");
}

TEST(DaemonConfigValidate, NodeDaemonRefusesAnInvalidConfig) {
  DaemonConfig config = daemon_config(DaemonRole::kCarpProxy);
  config.payload.erasure.enabled = true;
  try {
    NodeDaemon daemon(config);
    FAIL() << "NodeDaemon accepted an erasure tier without a payload store";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "NodeDaemon: --erasure 1 needs --payload 1");
  }
}

}  // namespace
}  // namespace adc::server
