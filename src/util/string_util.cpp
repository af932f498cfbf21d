#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <limits>

namespace adc::util {
namespace {

bool is_space(char c) noexcept { return std::isspace(static_cast<unsigned char>(c)) != 0; }

}  // namespace

std::string_view trim(std::string_view s) noexcept {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_space(s[begin])) ++begin;
  while (end > begin && is_space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> split_whitespace(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::optional<std::int64_t> parse_int(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_uint(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty() || s.front() == '-') return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  // std::from_chars<double> is unreliable across stdlibs; strtod on a
  // bounded copy keeps behaviour portable.
  std::string copy(s);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (errno != 0 || end != copy.c_str() + copy.size()) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_size(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::uint64_t multiplier = 1;
  const char last = static_cast<char>(std::tolower(static_cast<unsigned char>(s.back())));
  if (last == 'k') {
    multiplier = 1000;
  } else if (last == 'm') {
    multiplier = 1000 * 1000;
  } else if (last == 'g') {
    multiplier = 1000ULL * 1000 * 1000;
  }
  if (multiplier != 1) s.remove_suffix(1);
  const auto base = parse_uint(s);
  if (!base || *base > std::numeric_limits<std::uint64_t>::max() / multiplier) return std::nullopt;
  return *base * multiplier;
}

std::string with_thousands(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace adc::util
