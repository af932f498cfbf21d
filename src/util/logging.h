// Minimal leveled logger.
//
// Each simulation is deterministic and single-threaded, but the parallel
// experiment engine runs many simulations at once, so the logger is the
// one piece of cross-run shared state: a global (atomic) level and a
// mutex-serialized stderr sink, with cheap early-out macros that avoid
// formatting when the level is disabled.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace adc::util {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Returns the canonical lower-case name of a level ("trace", "info", ...).
std::string_view log_level_name(LogLevel level) noexcept;

/// Global minimum level; messages below it are discarded.
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// True when `level` would currently be emitted.
bool log_enabled(LogLevel level) noexcept;

/// Emits one formatted line: "[LEVEL] message\n".  Thread-safe: lines from
/// concurrent experiment runs are serialized, never interleaved.
void log_line(LogLevel level, std::string_view message);

namespace detail {

class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage() { log_line(level_, stream_.str()); }

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail

}  // namespace adc::util

#define ADC_LOG(level)                                  \
  if (!::adc::util::log_enabled(level)) {               \
  } else                                                \
    ::adc::util::detail::LogMessage(level).stream()

#define ADC_LOG_TRACE ADC_LOG(::adc::util::LogLevel::kTrace)
#define ADC_LOG_DEBUG ADC_LOG(::adc::util::LogLevel::kDebug)
#define ADC_LOG_INFO ADC_LOG(::adc::util::LogLevel::kInfo)
#define ADC_LOG_WARN ADC_LOG(::adc::util::LogLevel::kWarn)
#define ADC_LOG_ERROR ADC_LOG(::adc::util::LogLevel::kError)
