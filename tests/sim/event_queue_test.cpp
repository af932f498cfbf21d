#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

}  // namespace
}  // namespace adc::sim
