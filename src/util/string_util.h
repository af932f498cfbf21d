// Small string helpers used by config parsing, trace I/O and reporting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace adc::util {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s) noexcept;

/// Splits on arbitrary runs of ASCII whitespace; no empty fields.
std::vector<std::string_view> split_whitespace(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix) noexcept;
bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// Strict integer / floating-point parsing: the whole trimmed token must be
/// consumed, otherwise nullopt.
std::optional<std::int64_t> parse_int(std::string_view s) noexcept;
std::optional<std::uint64_t> parse_uint(std::string_view s) noexcept;
std::optional<double> parse_double(std::string_view s) noexcept;

/// Parses a size with optional k/m/g suffix (powers of 1000): "20k" -> 20000.
std::optional<std::uint64_t> parse_size(std::string_view s) noexcept;

/// "1234567" -> "1,234,567" (for human-readable reports).
std::string with_thousands(std::uint64_t value);

}  // namespace adc::util
