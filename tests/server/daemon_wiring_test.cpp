// Socket-free checks of how adcd wires its agent: a NodeDaemon is built
// (never bound or run) and inspected.  hosted() must be the protocol agent
// itself — never the membership wrapper — because harnesses dynamic_cast
// it to read agent counters, and the detector and erasure tier must be
// reachable whenever their layers are on.
#include "server/daemon.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace adc::server
