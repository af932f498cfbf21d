// The request driver: replays a request stream against the proxy system.
//
// One Client node stands in for the paper's Polygraph robot population.
// It keeps `concurrency` requests outstanding (closed loop): each reply
// triggers the next injection, so the request order every proxy observes
// is fully determined by the trace and the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "sim/node.h"
#include "sim/simulator.h"
#include "sim/version.h"
#include "util/flat_index.h"
#include "util/types.h"

namespace adc::proxy {

/// Source of object ids to request, in order.  Exhaustion ends the run.
class RequestStream {
 public:
  virtual ~RequestStream() = default;
  virtual std::optional<ObjectId> next() = 0;
};

/// Replays a fixed in-memory sequence (tests and small examples).
class VectorStream final : public RequestStream {
 public:
  explicit VectorStream(std::vector<ObjectId> objects) : objects_(std::move(objects)) {}

  std::optional<ObjectId> next() override {
    if (cursor_ >= objects_.size()) return std::nullopt;
    return objects_[cursor_++];
  }

 private:
  std::vector<ObjectId> objects_;
  std::size_t cursor_ = 0;
};

/// How the client picks the entry proxy for each request.
enum class EntryPolicy {
  kRandom,      // uniform over all proxies (paper's distributed clients)
  kRoundRobin,  // deterministic rotation
};

class Client final : public sim::Node {
 public:
  /// `stream` must outlive the client.  `concurrency` >= 1 requests are
  /// kept in flight.
  Client(NodeId id, std::string name, RequestStream& stream,
         std::vector<NodeId> proxies, EntryPolicy policy = EntryPolicy::kRandom,
         int concurrency = 1);

  /// Schedules the initial injections; call once before Simulator::run().
  void start(sim::Simulator& sim);

  /// Registers a callback fired when exactly `completed` requests have
  /// finished — drivers use this to inject faults or membership changes at
  /// a trace-relative point.  Multiple callbacks per milestone compose.
  void at_completed(std::uint64_t completed, std::function<void()> callback);

  /// Enables staleness accounting: hits whose reply version lags the
  /// oracle's current version are counted as stale.
  void set_version_oracle(sim::VersionOraclePtr oracle) { oracle_ = std::move(oracle); }

  /// Per-request deadline in simulated ticks (0 disables, the default).
  /// When a request's deadline fires before its reply, the request counts
  /// as failed (metrics.on_request_failed) and its slot reinjects, so a
  /// lossy network cannot stall the closed loop.  A reply arriving after
  /// its deadline is ignored.  Must be set before start(); with the
  /// timeout off no extra events are scheduled, keeping fault-free runs
  /// bit-identical to pre-timeout behavior.
  void set_request_timeout(SimTime timeout) { request_timeout_ = timeout; }

  /// The client is the simulation-side load driver (the TCP runtime's
  /// adc_loadgen replaces it), so unlike the proxy agents it needs the full
  /// Simulator — scheduling and metrics — captured in start().
  void on_message(sim::Transport& net, const sim::Message& msg) override;

  std::uint64_t issued() const noexcept { return issued_; }
  std::uint64_t completed() const noexcept { return completed_; }
  std::uint64_t failed() const noexcept { return failed_; }
  std::uint64_t duplicate_replies() const noexcept { return duplicate_replies_; }
  bool drained() const noexcept { return drained_ && issued_ == completed_ + failed_; }

 private:
  void inject_next(sim::Simulator& sim);
  NodeId pick_entry(sim::Simulator& sim);

  sim::Simulator* sim_ = nullptr;  // set by start()
  RequestStream& stream_;
  std::vector<NodeId> proxies_;
  EntryPolicy policy_;
  int concurrency_;
  std::size_t round_robin_cursor_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t duplicate_replies_ = 0;
  SimTime request_timeout_ = 0;  // 0 = off
  /// Requests in flight; only consulted when faults can lose or duplicate
  /// replies (every reply matches an outstanding id in a fault-free run).
  util::FlatSet outstanding_;  // request ids awaiting a reply
  bool drained_ = false;
  std::map<std::uint64_t, std::vector<std::function<void()>>> milestones_;
  sim::VersionOraclePtr oracle_;
};

}  // namespace adc::proxy
