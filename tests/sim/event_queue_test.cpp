#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"

namespace adc::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.next_time(), kSimTimeMax);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(30, [&order] { order.push_back(3); });
  queue.schedule(10, [&order] { order.push_back(1); });
  queue.schedule(20, [&order] { order.push_back(2); });
  while (!queue.empty()) queue.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesRunInSchedulingOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RunNextReturnsEventTime) {
  EventQueue queue;
  queue.schedule(42, [] {});
  EXPECT_EQ(queue.next_time(), 42);
  EXPECT_EQ(queue.run_next(), 42);
}

TEST(EventQueue, NextTimePeeksWithoutRunning) {
  EventQueue queue;
  bool ran = false;
  queue.schedule(7, [&ran] { ran = true; });
  EXPECT_EQ(queue.next_time(), 7);
  EXPECT_FALSE(ran);
  EXPECT_EQ(queue.size(), 1u);
  queue.run_next();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1, [&] {
    order.push_back(1);
    queue.schedule(3, [&order] { order.push_back(3); });
  });
  queue.schedule(2, [&order] { order.push_back(2); });
  while (!queue.empty()) queue.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ExecutedCounter) {
  EventQueue queue;
  for (int i = 0; i < 5; ++i) queue.schedule(i, [] {});
  while (!queue.empty()) queue.run_next();
  EXPECT_EQ(queue.executed(), 5u);
}

TEST(EventQueue, InterleavedScheduleAndRun) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(10, [&order] { order.push_back(10); });
  queue.run_next();
  queue.schedule(15, [&order] { order.push_back(15); });
  queue.schedule(12, [&order] { order.push_back(12); });
  while (!queue.empty()) queue.run_next();
  EXPECT_EQ(order, (std::vector<int>{10, 12, 15}));
}

Message message_for(ObjectId object) {
  Message msg;
  msg.object = object;
  msg.target = static_cast<NodeId>(object % 3);
  return msg;
}

TEST(EventQueue, DeliveriesAndActionsShareOneOrder) {
  EventQueue queue;
  std::vector<ObjectId> order;
  const auto deliver = [&order](const Message& msg) { order.push_back(msg.object); };
  queue.schedule_delivery(5, message_for(50));
  queue.schedule(5, [&order] { order.push_back(51); });
  queue.schedule_delivery(1, message_for(10));
  queue.schedule(3, [&order] { order.push_back(30); });
  queue.schedule_delivery(5, message_for(52));
  while (!queue.empty()) queue.run_next(deliver);
  EXPECT_EQ(order, (std::vector<ObjectId>{10, 30, 50, 51, 52}));
  EXPECT_EQ(queue.executed(), 5u);
}

TEST(EventQueue, DeliveryKeepsItsCopyOfTheMessage) {
  EventQueue queue;
  Message msg = message_for(7);
  msg.hops = 3;
  queue.schedule_delivery(2, msg);
  msg.object = 99;  // the caller's copy is free to change
  Message got;
  queue.run_next([&got](const Message& m) { got = m; });
  EXPECT_EQ(got.object, 7u);
  EXPECT_EQ(got.hops, 3);
  EXPECT_EQ(got.target, 1);
}

TEST(EventQueue, DeliveriesMayScheduleDeliveriesWhileSlotsRecycle) {
  // Each delivery schedules two more until the budget runs out, so slots
  // are recycled and the slot array grows while a delivery is running; a
  // handler must still see the message it was scheduled with.
  EventQueue queue;
  std::vector<ObjectId> seen;
  ObjectId next = 1;
  const auto deliver = [&](const Message& msg) {
    seen.push_back(msg.object);
    for (int i = 0; i < 2 && next < 200; ++i) {
      Message child = message_for(next++);
      child.issued_at = msg.issued_at + 1 + i;
      queue.schedule_delivery(child.issued_at, child);
    }
    EXPECT_EQ(msg.target, static_cast<NodeId>(msg.object % 3));
  };
  queue.schedule_delivery(0, message_for(0));
  while (!queue.empty()) queue.run_next(deliver);
  ASSERT_EQ(seen.size(), 200u);
  std::vector<ObjectId> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  for (ObjectId i = 0; i < 200; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(EventQueue, RejectsPastTime) {
  // Checked in every build: a ring would otherwise file a past time up to
  // a full horizon late instead of failing.
  EventQueue queue;
  queue.schedule(10, [] {});
  queue.run_next();
  EXPECT_THROW(queue.schedule(9, [] {}), std::logic_error);
  EXPECT_THROW(queue.schedule_delivery(3, message_for(1)), std::logic_error);
  EXPECT_TRUE(queue.empty());  // a refused event leaves nothing behind
  try {
    queue.schedule(4, [] {});
    FAIL() << "scheduling before now() must throw";
  } catch (const std::logic_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("at 4"), std::string::npos) << what;
    EXPECT_NE(what.find("now 10"), std::string::npos) << what;
  }
  queue.schedule(10, [] {});  // the current tick is still open
  EXPECT_EQ(queue.next_time(), 10);
}

// --- Differential test against the single-heap queue ---------------------

/// The queue before the calendar ring: one binary heap on (time, sequence)
/// holding every pending event.  The calendar queue must pop exactly as it
/// does.
class HeapQueue {
 public:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::uint64_t id;
    bool delivery;
  };

  void schedule(SimTime at, std::uint64_t id, bool delivery) {
    heap_.push_back(Event{at, next_seq_++, id, delivery});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Event event = heap_.back();
    heap_.pop_back();
    ++executed_;
    return event;
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  SimTime next_time() const { return heap_.empty() ? kSimTimeMax : heap_.front().time; }
  std::uint64_t executed() const { return executed_; }

 private:
  static bool later(const Event& a, const Event& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

/// A random schedule.  Each delay is 0 with same_tick_pct, one of
/// kHorizon - 1, kHorizon, kHorizon + 1 with boundary_pct, uniform in
/// [0, 3 * kHorizon] with far_pct, else a hop-sized 1..16 ticks.
struct Shape {
  const char* name;
  std::uint64_t seed;
  int same_tick_pct;
  int boundary_pct;
  int far_pct;
  int delivery_pct;     // the rest are actions
  int min_children;     // events each handler schedules, uniform in
  int max_children;     // [min_children, max_children]
  std::size_t initial;  // events scheduled before the first pop
  bool expect_jumps;    // the ring must drain while far events wait
};

void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name << "/" << shape.seed; }

class EventQueueDiffTest : public ::testing::TestWithParam<Shape> {};

TEST_P(EventQueueDiffTest, PopsExactlyAsTheSingleHeap) {
  constexpr SimTime kH = EventQueue::kHorizon;
  constexpr std::uint64_t kBudget = 20000;  // events scheduled in total
  const Shape shape = GetParam();
  util::Rng rng(shape.seed);
  EventQueue queue;
  HeapQueue ref;

  struct Planned {
    std::uint64_t id;
    SimTime delay;
    bool delivery;
  };
  std::vector<Planned> plan;
  std::uint64_t next_id = 0;
  const auto draw_delay = [&]() -> SimTime {
    const int roll = static_cast<int>(rng.next() % 100);
    if (roll < shape.same_tick_pct) return 0;
    if (roll < shape.same_tick_pct + shape.boundary_pct) {
      return kH - 1 + static_cast<SimTime>(rng.next() % 3);
    }
    if (roll < shape.same_tick_pct + shape.boundary_pct + shape.far_pct) {
      return static_cast<SimTime>(rng.next() % static_cast<std::uint64_t>(3 * kH + 1));
    }
    return 1 + static_cast<SimTime>(rng.next() % 16);
  };
  const auto draw_plan = [&](std::size_t count) {
    plan.clear();
    for (std::size_t i = 0; i < count && next_id < kBudget; ++i) {
      const SimTime delay = draw_delay();
      const bool delivery = static_cast<int>(rng.next() % 100) < shape.delivery_pct;
      plan.push_back(Planned{next_id++, delay, delivery});
    }
  };

  // The calendar side schedules the plan from inside the running handler,
  // so every child is filed re-entrantly.
  std::uint64_t handled_id = UINT64_MAX;
  bool handled_delivery = false;
  SimTime handled_at = -1;
  std::function<void(std::uint64_t, bool)> handle;
  const auto schedule_plan = [&](SimTime now) {
    for (const Planned& p : plan) {
      if (p.delivery) {
        Message msg;
        msg.request_id = p.id;
        queue.schedule_delivery(now + p.delay, msg);
      } else {
        queue.schedule(now + p.delay, [&handle, id = p.id] { handle(id, false); });
      }
    }
  };
  handle = [&](std::uint64_t id, bool delivery) {
    handled_id = id;
    handled_delivery = delivery;
    handled_at = queue.now();
    schedule_plan(queue.now());
  };
  const auto deliver = [&handle](const Message& msg) { handle(msg.request_id, true); };

  const auto expect_same_state = [&](std::uint64_t step) {
    ASSERT_EQ(queue.size(), ref.size()) << "step " << step;
    ASSERT_EQ(queue.empty(), ref.empty()) << "step " << step;
    ASSERT_EQ(queue.next_time(), ref.next_time()) << "step " << step;
    ASSERT_EQ(queue.executed(), ref.executed()) << "step " << step;
  };

  draw_plan(shape.initial);
  for (const Planned& p : plan) ref.schedule(p.delay, p.id, p.delivery);
  schedule_plan(0);
  expect_same_state(0);
  if (HasFatalFailure()) return;

  std::uint64_t same_tick = 0;
  std::uint64_t jumps = 0;  // pops with nothing pending inside the horizon
  SimTime last = 0;
  for (std::uint64_t step = 1; !ref.empty(); ++step) {
    const HeapQueue::Event want = ref.pop();
    if (step > 1 && want.time == last) ++same_tick;
    if (want.time - last >= kH) ++jumps;
    last = want.time;
    const auto span = static_cast<std::uint64_t>(shape.max_children - shape.min_children + 1);
    draw_plan(static_cast<std::size_t>(shape.min_children) + rng.next() % span);
    for (const Planned& p : plan) ref.schedule(want.time + p.delay, p.id, p.delivery);

    const SimTime at = queue.run_next(deliver);
    ASSERT_EQ(handled_id, want.id) << "step " << step;
    ASSERT_EQ(handled_delivery, want.delivery) << "step " << step;
    ASSERT_EQ(handled_at, want.time) << "step " << step;
    ASSERT_EQ(at, want.time) << "step " << step;
    expect_same_state(step);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(ref.executed(), kBudget);
  if (shape.same_tick_pct > 0) {
    EXPECT_GT(same_tick, 0u);
  }
  if (shape.expect_jumps) {
    EXPECT_GT(jumps, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, EventQueueDiffTest,
    ::testing::Values(
        // Same-tick bursts over hop-sized delays: the ring alone.
        Shape{"bursts", 1, 50, 0, 0, 50, 0, 3, 64, false},
        Shape{"bursts", 2, 50, 0, 0, 50, 0, 3, 64, false},
        // Delays across three horizons: far events migrate in constantly.
        Shape{"wide", 3, 5, 0, 60, 50, 1, 2, 256, false},
        Shape{"wide", 4, 5, 0, 60, 50, 1, 2, 256, false},
        // Timers one tick inside, on and one tick past the horizon.
        Shape{"boundary", 5, 10, 40, 10, 50, 1, 2, 32, false},
        Shape{"boundary", 6, 10, 40, 10, 50, 1, 2, 32, false},
        // A few events, mostly far: the ring drains and the clock jumps.
        Shape{"drains", 7, 10, 20, 60, 50, 1, 1, 4, true},
        Shape{"drains", 8, 10, 20, 60, 50, 1, 1, 4, true},
        // Near-only actions then deliveries, to pin each kind's slots.
        Shape{"actions", 9, 20, 10, 10, 0, 0, 3, 16, false},
        Shape{"deliveries", 10, 20, 10, 10, 100, 0, 3, 16, false}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return std::string(info.param.name) + "_" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace adc::sim
