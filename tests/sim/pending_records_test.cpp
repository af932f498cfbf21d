#include "sim/pending_records.h"

#include <gtest/gtest.h>

#include <iterator>
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

// A request that loops through the same proxy holds one record per pass.
// Several looping requests interleave their records, so each stack's
// links are scattered through the recycled array; the index maps each
// request to its top link and reads the request id back from that link.
TEST(PendingRecords, LoopingRequestsHoldSeveralRecords) {
  PendingRecords pending;
  std::map<RequestId, std::vector<NodeId>> model;
  util::Rng rng(5);
  for (int round = 0; round < 50; ++round) {
    // Four requests loop back 1-12 times each, their pushes interleaved.
    std::vector<RequestId> requests;
    for (int r = 0; r < 4; ++r) requests.push_back(make_request_id(r + 1, rng.below(8)));
    for (int pass = 0; pass < 12; ++pass) {
      for (const RequestId request : requests) {
        if (rng.below(12) < static_cast<std::uint64_t>(pass)) continue;
        const auto hop = static_cast<NodeId>(rng.below(9));
        ASSERT_EQ(pending.push(request, hop), model.count(request) == 1);
        model[request].push_back(hop);
      }
    }
    ASSERT_EQ(pending.size(), model.size());
    // Drain half of the requests entirely, the rest down to one record.
    for (auto it = model.begin(); it != model.end();) {
      const bool drain = rng.below(2) == 0;
      std::vector<NodeId>& stack = it->second;
      while (stack.size() > (drain ? 0u : 1u)) {
        ASSERT_EQ(pending.pop(it->first), stack.back()) << "round " << round;
        stack.pop_back();
      }
      ASSERT_EQ(pending.contains(it->first), !stack.empty());
      it = stack.empty() ? model.erase(it) : std::next(it);
    }
    ASSERT_EQ(pending.size(), model.size());
  }
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
