#include "sim/pending_records.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "util/rng.h"

namespace adc::sim {
namespace {

TEST(PendingRecords, PopsInReverseOrderPerRequest) {
  PendingRecords pending;
  EXPECT_FALSE(pending.contains(1));
  pending.push(1, 10);
  pending.push(2, 20);
  pending.push(1, 11);  // the request looped back through this proxy
  EXPECT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending.pop(1), 11);
  EXPECT_TRUE(pending.contains(1));
  EXPECT_EQ(pending.pop(1), 10);
  EXPECT_FALSE(pending.contains(1));
  EXPECT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending.pop(2), 20);
  EXPECT_EQ(pending.size(), 0u);
}

// push() reports a record already present, which is how a proxy detects
// that a request looped back to it without probing twice.
TEST(PendingRecords, PushReportsAnExistingRecord) {
  PendingRecords pending;
  EXPECT_FALSE(pending.push(1, 10));
  EXPECT_FALSE(pending.push(2, 20));
  EXPECT_TRUE(pending.push(1, 11));
  EXPECT_EQ(pending.pop(1), 11);
  EXPECT_TRUE(pending.push(1, 12));  // one record of request 1 is still held
  EXPECT_EQ(pending.pop(1), 12);
  EXPECT_EQ(pending.pop(1), 10);
  EXPECT_FALSE(pending.push(1, 13));  // every record of request 1 was popped
}

TEST(PendingRecords, MatchesStacksOfVectorsUnderChurn) {
  PendingRecords pending;
  std::map<RequestId, std::vector<NodeId>> model;
  util::Rng rng(11);
  for (int step = 0; step < 20000; ++step) {
    const RequestId request = make_request_id(7, rng.below(32));
    if (rng.below(2) == 0 || model.count(request) == 0) {
      const auto hop = static_cast<NodeId>(rng.below(5));
      ASSERT_EQ(pending.push(request, hop), model.count(request) == 1) << "step " << step;
      model[request].push_back(hop);
    } else {
      auto& stack = model[request];
      ASSERT_EQ(pending.pop(request), stack.back()) << "step " << step;
      stack.pop_back();
      if (stack.empty()) model.erase(request);
    }
    ASSERT_EQ(pending.size(), model.size());
    ASSERT_EQ(pending.contains(request), model.count(request) == 1);
  }
}

}  // namespace
}  // namespace adc::sim
