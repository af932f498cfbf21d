#include <cmath>
#include <cstdio>
#include <sstream>

#include "perfbench.h"

namespace adc::perfbench {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_fields(const Fields& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_escape(fields[i].first) + ": " + json_number(fields[i].second);
  }
  return out + "}";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

int SpanRecorder::open(std::string name) {
  if (!enabled_) return -1;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), stack_.empty() ? -1 : stack_.back(), now_ns(), 0, 1});
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index, std::uint64_t count) {
  if (index < 0) return;
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  span.count = count;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::string SpanRecorder::json() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",\n ") << "{\"name\": " << json_escape(span.name)
        << ", \"parent\": " << span.parent << ", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << ", \"count\": " << span.count << "}";
  }
  out << "]";
  return out.str();
}

}  // namespace adc::perfbench
