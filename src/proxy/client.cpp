#include "proxy/client.h"

#include <cassert>
#include <utility>

namespace adc::proxy {

Client::Client(NodeId id, std::string name, RequestStream& stream,
               std::vector<NodeId> proxies, EntryPolicy policy, int concurrency)
    : Node(id, sim::NodeKind::kClient, std::move(name)),
      stream_(stream),
      proxies_(std::move(proxies)),
      policy_(policy),
      concurrency_(concurrency) {
  assert(!proxies_.empty());
  assert(concurrency_ >= 1);
}

void Client::start(sim::Simulator& sim) {
  sim_ = &sim;
  for (int i = 0; i < concurrency_; ++i) {
    // Stagger initial injections by one tick each so their delivery order
    // is well-defined.
    sim.schedule_after(i + 1, [this, &sim]() { inject_next(sim); });
  }
}

NodeId Client::pick_entry(sim::Simulator& sim) {
  if (policy_ == EntryPolicy::kRoundRobin) {
    const NodeId entry = proxies_[round_robin_cursor_];
    round_robin_cursor_ = (round_robin_cursor_ + 1) % proxies_.size();
    return entry;
  }
  return proxies_[sim.rng().index(proxies_.size())];
}

void Client::inject_next(sim::Simulator& sim) {
  const auto object = stream_.next();
  if (!object.has_value()) {
    drained_ = true;
    return;
  }

  sim::Message request;
  request.kind = sim::MessageKind::kRequest;
  request.request_id = make_request_id(id(), issued_);
  request.object = *object;
  request.sender = id();
  request.target = pick_entry(sim);
  request.client = id();
  request.forward_count = 0;
  request.hops = 0;
  request.issued_at = sim.now();
  const RequestId request_id = request.request_id;
  ++issued_;
  outstanding_.insert(request_id);
  sim.send(std::move(request));

  if (request_timeout_ > 0) {
    sim.schedule_after(request_timeout_, [this, request_id]() {
      if (!outstanding_.erase(request_id)) return;  // reply beat the deadline
      ++failed_;
      sim_->metrics().on_request_failed();
      inject_next(*sim_);  // keep the closed loop running
    });
  }
}

void Client::at_completed(std::uint64_t completed, std::function<void()> callback) {
  assert(completed > completed_ && "milestone already passed");
  milestones_[completed].push_back(std::move(callback));
}

void Client::on_message(sim::Transport&, const sim::Message& msg) {
  assert(msg.kind == sim::MessageKind::kReply);
  assert(msg.client == id());
  assert(sim_ != nullptr && "Client::start() must run before replies arrive");
  sim::Simulator& sim = *sim_;
  if (!outstanding_.erase(msg.request_id)) {
    // A duplicated reply, or one that lost the race against its deadline:
    // the request already resolved, so this copy must not count.
    ++duplicate_replies_;
    return;
  }
  ++completed_;
  const bool stale = msg.proxy_hit && oracle_ != nullptr &&
                     msg.version < oracle_->version_at(msg.object, sim.now());
  sim.metrics().on_request_completed(msg.proxy_hit, msg.hops, sim.now() - msg.issued_at,
                                     stale, msg.payload_bytes, msg.degraded);
  if (const auto it = milestones_.find(completed_); it != milestones_.end()) {
    for (const auto& callback : it->second) callback();
    milestones_.erase(it);
  }
  inject_next(sim);
}

}  // namespace adc::proxy
