#include "util/logging.h"

#include <atomic>
#include <iostream>
#include <mutex>

namespace adc::util {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarn};

// Serializes sink writes so lines from parallel experiment workers never
// interleave mid-line.
std::mutex g_sink_mutex;

}  // namespace

std::string_view log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace:
      return "trace";
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "unknown";
}

void set_log_level(LogLevel level) noexcept { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() noexcept { return g_level.load(std::memory_order_relaxed); }

bool log_enabled(LogLevel level) noexcept {
  return static_cast<int>(level) >= static_cast<int>(log_level());
}

void log_line(LogLevel level, std::string_view message) {
  if (!log_enabled(level)) return;
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::cerr << '[' << log_level_name(level) << "] " << message << '\n';
}

}  // namespace adc::util
