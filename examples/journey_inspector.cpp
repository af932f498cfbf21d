// Journey inspector: watch individual requests walk the proxy system.
//
//   ./journey_inspector [--requests 40] [--proxies 4] [--object 7]
//
// Prints each journey as its actual message path — the random search, the
// loop terminations at the origin, the learned direct routes once the
// system converges, and the backwarding that teaches every proxy on the
// way back.  The clearest way to *see* the paper's Section III mechanics.
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "core/adc_proxy.h"
#include "proxy/client.h"
#include "proxy/origin_server.h"
#include "sim/simulator.h"
#include "util/cli.h"

namespace {

using namespace adc;

struct Leg {
  bool request;
  NodeId from;
  NodeId to;
};

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t count = 40;
  int proxies = 4;
  ObjectId object = 7;
  std::uint64_t seed = 3;
  util::CliParser cli("Trace individual request journeys through an ADC deployment.");
  cli.bind("requests", &count, "how many requests to trace")
      .bind("proxies", &proxies, "number of cooperating proxies", {1, 1000})
      .bind("object", &object, "the (single) object id everybody asks for")
      .bind("seed", &seed, "simulation seed");
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  core::AdcConfig config;
  config.single_table_size = 32;
  config.multiple_table_size = 32;
  config.caching_table_size = 8;

  sim::Simulator sim(seed);
  std::vector<NodeId> ids;
  for (int i = 0; i < proxies; ++i) ids.push_back(i);
  const NodeId origin_id = proxies;
  const NodeId client_id = proxies + 1;
  std::vector<core::AdcProxy*> nodes;
  for (int i = 0; i < proxies; ++i) {
    auto node = std::make_unique<core::AdcProxy>(i, "P" + std::to_string(i), config, ids,
                                                 origin_id);
    nodes.push_back(node.get());
    sim.add_node(std::move(node));
  }
  sim.add_node(std::make_unique<proxy::OriginServer>(origin_id, "origin"));
  proxy::VectorStream stream(std::vector<ObjectId>(count, object));
  auto client_node = std::make_unique<proxy::Client>(client_id, "client", stream, ids);
  auto* client = client_node.get();
  sim.add_node(std::move(client_node));

  std::map<RequestId, std::vector<Leg>> journeys;
  sim.set_message_observer([&journeys](const sim::Message& msg, SimTime) {
    journeys[msg.request_id].push_back(
        Leg{msg.kind == sim::MessageKind::kRequest, msg.sender, msg.target});
  });

  client->start(sim);
  sim.run();

  const auto name = [&](NodeId id) -> std::string {
    if (id == client_id) return "client";
    if (id == origin_id) return "ORIGIN";
    return "P" + std::to_string(id);
  };

  std::cout << "every request asks for object " << object << "; " << proxies
            << " proxies; watch the system converge:\n\n";
  std::uint64_t index = 0;
  for (const auto& [id, legs] : journeys) {
    ++index;
    bool hit = false;
    std::string line;
    for (const auto& leg : legs) {
      if (line.empty()) line += name(leg.from);
      line += leg.request ? " -> " : " ~> ";  // ~> marks backwarding
      line += name(leg.to);
      if (!leg.request && leg.from != origin_id) hit = true;
    }
    const bool origin_resolved =
        std::any_of(legs.begin(), legs.end(),
                    [origin_id](const Leg& leg) { return leg.request && leg.to == origin_id; });
    std::cout << (origin_resolved ? "[miss] " : "[HIT]  ") << "#" << index << "  " << line
              << '\n';
    (void)hit;
  }

  std::cout << "\nfinal state:\n";
  for (const auto* node : nodes) {
    const auto location = node->tables().forward_location(object);
    std::cout << "  " << node->name() << ": cached=" << (node->is_locally_cached(object) ? "yes" : "no")
              << " location="
              << (location.has_value() ? name(*location) : std::string("(unknown)")) << '\n';
  }
  return 0;
}
