// FaultPlan is pure data; these tests pin down the two behaviors the rest
// of the subsystem builds on: is_zero() gates whether a fault layer is
// installed at all, and describe() is the banner every chaos run logs.
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

namespace adc::fault {
namespace {

TEST(FaultPlan, DefaultPlanIsZero) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.is_zero());
  EXPECT_EQ(plan.describe(), "no faults");
}

TEST(FaultPlan, SeedAloneKeepsPlanZero) {
  // The seed is not a fault: sweeping seeds over a zero plan must not
  // install a fault layer anywhere.
  FaultPlan plan;
  plan.seed = 12345;
  EXPECT_TRUE(plan.is_zero());
}

TEST(FaultPlan, AnyProbabilityMakesPlanNonZero) {
  FaultPlan drop;
  drop.drop_prob = 0.01;
  EXPECT_FALSE(drop.is_zero());

  FaultPlan dup;
  dup.dup_prob = 0.01;
  EXPECT_FALSE(dup.is_zero());

  FaultPlan delay;
  delay.extra_delay_prob = 0.01;
  EXPECT_FALSE(delay.is_zero());
}

TEST(FaultPlan, WindowsMakePlanNonZero) {
  FaultPlan partitioned;
  partitioned.partitions.push_back(LinkPartition{0, 1, 100, 200});
  EXPECT_FALSE(partitioned.is_zero());

  FaultPlan crashing;
  crashing.crashes.push_back(CrashWindow{2, 100, 200, true});
  EXPECT_FALSE(crashing.is_zero());
}

TEST(FaultPlan, DescribeMentionsEveryActiveFault) {
  FaultPlan plan;
  plan.drop_prob = 0.05;
  plan.dup_prob = 0.01;
  plan.crashes.push_back(CrashWindow{2, 100, 200, true});
  plan.seed = 7;
  const std::string text = plan.describe();
  EXPECT_NE(text.find("drop=0.05"), std::string::npos) << text;
  EXPECT_NE(text.find("dup=0.01"), std::string::npos) << text;
  EXPECT_NE(text.find("crashes=1"), std::string::npos) << text;
  EXPECT_NE(text.find("seed=7"), std::string::npos) << text;
}

}  // namespace
}  // namespace adc::fault
