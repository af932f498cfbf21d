#include "util/logging.h"

#include <gtest/gtest.h>

namespace adc::util {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void TearDown() override { set_log_level(LogLevel::kWarn); }
};

TEST_F(LoggingTest, LevelNamesRoundTrip) {
  EXPECT_EQ(log_level_name(LogLevel::kTrace), "trace");
  EXPECT_EQ(log_level_name(LogLevel::kDebug), "debug");
  EXPECT_EQ(log_level_name(LogLevel::kInfo), "info");
  EXPECT_EQ(log_level_name(LogLevel::kWarn), "warn");
  EXPECT_EQ(log_level_name(LogLevel::kError), "error");
  EXPECT_EQ(log_level_name(LogLevel::kOff), "off");
}

TEST_F(LoggingTest, GateRespectsLevel) {
  set_log_level(LogLevel::kWarn);
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
}

TEST_F(LoggingTest, OffDisablesEverything) {
  set_log_level(LogLevel::kOff);
  EXPECT_FALSE(log_enabled(LogLevel::kError));
}

TEST_F(LoggingTest, MacroDoesNotEvaluateWhenDisabled) {
  set_log_level(LogLevel::kError);
  int evaluations = 0;
  ADC_LOG_DEBUG << "side effect " << ++evaluations;
  EXPECT_EQ(evaluations, 0);
  ADC_LOG_ERROR << "side effect " << ++evaluations;
  EXPECT_EQ(evaluations, 1);
}

}  // namespace
}  // namespace adc::util
