#include "driver/proxy_factory.h"

#include <algorithm>

#include "core/adc_proxy.h"
#include "hash/carp.h"
#include "hash/consistent_hash.h"
#include "hash/rendezvous.h"
#include "proxy/hashing_proxy.h"
#include "proxy/hierarchical_proxy.h"
#include "proxy/soap_proxy.h"

namespace adc::driver {
namespace {

using OwnerMapFactory = proxy::HashingProxy::OwnerMapFactory;

/// Recomputes a hashing scheme's owner map from a (surviving) membership.
OwnerMapFactory owner_map_factory(const ProxySpec& spec) {
  switch (spec.scheme) {
    case Scheme::kCarp: {
      std::vector<hash::CarpArray::Member> members;
      for (std::size_t i = 0; i < spec.proxies.size(); ++i) {
        const double load_factor =
            spec.carp_load_factors.empty() ? 1.0 : spec.carp_load_factors[i];
        members.push_back({hash::member_name(spec.proxies[i]), spec.proxies[i], load_factor});
      }
      // Rebuilds keep each surviving member's name and load factor, so
      // ownership of the untouched key space is stable.
      return [members](const std::vector<NodeId>& ids) -> std::shared_ptr<const proxy::OwnerMap> {
        std::vector<hash::CarpArray::Member> live;
        for (const hash::CarpArray::Member& m : members) {
          if (std::find(ids.begin(), ids.end(), m.node) != ids.end()) live.push_back(m);
        }
        return std::make_shared<proxy::CarpOwnerMap>(hash::CarpArray(std::move(live)));
      };
    }
    case Scheme::kConsistent:
      return [](const std::vector<NodeId>& ids) -> std::shared_ptr<const proxy::OwnerMap> {
        hash::ConsistentHashRing ring;
        for (const NodeId id : ids) ring.add_member(id, hash::member_name(id));
        return std::make_shared<proxy::RingOwnerMap>(std::move(ring));
      };
    case Scheme::kRendezvous:
      return [](const std::vector<NodeId>& ids) -> std::shared_ptr<const proxy::OwnerMap> {
        hash::RendezvousHash hrw;
        for (const NodeId id : ids) hrw.add_member(id, hash::member_name(id));
        return std::make_shared<proxy::RendezvousOwnerMap>(std::move(hrw));
      };
    default:
      return nullptr;
  }
}

}  // namespace

const std::vector<std::pair<std::string, Scheme>>& scheme_names() {
  static const std::vector<std::pair<std::string, Scheme>> names = {
      {"adc", Scheme::kAdc},
      {"carp", Scheme::kCarp},
      {"hash", Scheme::kCarp},
      {"hashing", Scheme::kCarp},
      {"consistent", Scheme::kConsistent},
      {"ring", Scheme::kConsistent},
      {"rendezvous", Scheme::kRendezvous},
      {"hrw", Scheme::kRendezvous},
      {"hierarchical", Scheme::kHierarchical},
      {"hier", Scheme::kHierarchical},
      {"coordinator", Scheme::kCoordinator},
      {"central", Scheme::kCoordinator},
      {"soap", Scheme::kSoap},
  };
  return names;
}

std::string_view scheme_name(Scheme scheme) noexcept {
  for (const auto& [name, known] : scheme_names()) {
    if (known == scheme) return name;
  }
  return "adc";
}

bool membership_supported(Scheme scheme) noexcept {
  return scheme == Scheme::kAdc || scheme == Scheme::kCarp ||
         scheme == Scheme::kConsistent || scheme == Scheme::kRendezvous;
}

BuiltProxy build_proxy(const ProxySpec& spec, NodeId id, std::string name) {
  const store::StoreContext store_ctx{spec.store, spec.proxies};
  const bool wrap = spec.membership.swim.enabled && membership_supported(spec.scheme);
  std::unique_ptr<sim::ProxyAgent> agent;
  switch (spec.scheme) {
    case Scheme::kAdc: {
      auto adc = std::make_unique<core::AdcProxy>(id, std::move(name), spec.adc, spec.proxies,
                                                  spec.upstream);
      if (spec.store != nullptr) adc->enable_store(store_ctx);
      agent = std::move(adc);
      break;
    }
    case Scheme::kCarp:
    case Scheme::kConsistent:
    case Scheme::kRendezvous: {
      OwnerMapFactory factory = owner_map_factory(spec);
      auto hashing = std::make_unique<proxy::HashingProxy>(
          id, std::move(name), factory(spec.proxies), spec.upstream, spec.cache_capacity,
          spec.policy, spec.entry_caching);
      if (spec.store != nullptr) hashing->enable_store(store_ctx);
      // Without membership the startup owner map is fixed for the run.
      if (wrap) hashing->set_owner_map_factory(std::move(factory), spec.proxies);
      agent = std::move(hashing);
      break;
    }
    case Scheme::kHierarchical:
    case Scheme::kCoordinator: {
      auto cache_node = std::make_unique<proxy::CacheNode>(id, std::move(name), spec.upstream,
                                                           spec.cache_capacity, spec.policy);
      if (spec.store != nullptr) cache_node->enable_store(store_ctx);
      agent = std::move(cache_node);
      break;
    }
    case Scheme::kSoap:
      // SOAP's category tables predate the payload store; it runs store-free.
      agent = std::make_unique<proxy::SoapProxy>(
          id, std::move(name), std::make_shared<const proxy::CategoryMap>(spec.soap_categories),
          spec.proxies, spec.upstream, spec.cache_capacity);
      break;
  }

  BuiltProxy built;
  built.agent = agent.get();
  if (wrap) {
    auto member =
        std::make_unique<membership::MemberAgent>(std::move(agent), spec.proxies, spec.membership);
    built.member = member.get();
    built.node = std::move(member);
  } else {
    built.node = std::move(agent);
  }
  return built;
}

}  // namespace adc::driver
