// Proxy factory: the one place a scheme name turns into a running proxy.
//
// Both hosts build their proxies here — the simulator's run_experiment for
// every member of a deployment, the adcd daemon for the one member it
// serves — so a scheme is wired the same way in both, and a new scheme is
// added in one switch instead of one per host.  The factory also owns the
// owner-map factories of the hashing schemes; with hash::member_name they
// make object ownership identical in sim and live.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/policies.h"
#include "core/adc_config.h"
#include "membership/member_agent.h"
#include "sim/proxy_agent.h"
#include "store/payload.h"
#include "util/types.h"

namespace adc::driver {

/// Distributed-caching schemes the testbed can run.
enum class Scheme {
  kAdc,           // the paper's contribution
  kCarp,          // the paper's hashing baseline (CARP v1.1)
  kConsistent,    // consistent-hashing ring baseline
  kRendezvous,    // rendezvous (HRW) baseline
  kHierarchical,  // 2-level admit-all hierarchy baseline
  kCoordinator,   // central-coordinator load balancer (paper Section II.1)
  kSoap,          // self-organized adaptive proxies (paper Section II.2)
};

/// Every accepted scheme name, lower case, aliases included; each scheme's
/// first entry is its scheme_name().  Also the CLIs' `--scheme` choices.
const std::vector<std::pair<std::string, Scheme>>& scheme_names();

std::string_view scheme_name(Scheme scheme) noexcept;

/// True for the flat schemes whose proxies can run under a MemberAgent
/// wrapper (the others have a topology fixed by construction — a hierarchy
/// root or a central coordinator — that live membership cannot rewire).
bool membership_supported(Scheme scheme) noexcept;

/// What every proxy of one deployment shares; build_proxy adds the
/// member's own id and name.
struct ProxySpec {
  Scheme scheme = Scheme::kAdc;

  /// Full proxy membership, identical on every member.
  std::vector<NodeId> proxies;

  /// Where misses go: the origin, or the root for hierarchical leaves.
  NodeId upstream = kInvalidNode;

  core::AdcConfig adc;

  /// Baseline cache size and policy (every scheme but ADC; SOAP is LRU).
  std::size_t cache_capacity = 0;
  cache::Policy policy = cache::Policy::kLru;

  /// Hashing schemes: route replies through the entry proxy.
  bool entry_caching = false;

  /// CARP: per-member load factors in `proxies` order (empty = all 1.0).
  std::vector<double> carp_load_factors;

  std::size_t soap_categories = 256;

  /// Payload store shared by the deployment; null while disabled.
  store::PayloadStorePtr store;

  membership::MembershipConfig membership;
};

struct BuiltProxy {
  /// What the host registers and delivers to: the agent itself, or the
  /// MemberAgent wrapping it.
  std::unique_ptr<sim::Node> node;
  sim::ProxyAgent* agent = nullptr;           // the protocol agent in `node`
  membership::MemberAgent* member = nullptr;  // null unless `node` wraps
};

/// Builds member `id` of the deployment `spec` describes, wrapped in a
/// MemberAgent when spec.membership.swim.enabled and the scheme is flat.
BuiltProxy build_proxy(const ProxySpec& spec, NodeId id, std::string name);

}  // namespace adc::driver
