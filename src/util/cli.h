// Declarative command-line parser for the examples, benches and servers.
//
// Each flag is one bind() (or choice()) call that ties `--key` to a typed
// field; parse() writes the value straight into that field.  The field's
// initializer is therefore the only default, and --help shows it.
//
// Supports `--key value`, `--key=value`, bare boolean flags (`--series`),
// repeatable options and positional arguments.  parse() fails with a
// message naming the flag when a value does not parse in full (`3x`), falls
// outside the field's type or declared range (`--port 70000`), or names no
// choice.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace adc::util {

/// Inclusive bounds of a numeric flag; the default is the field type's range.
template <typename T>
struct Range {
  T lo = std::numeric_limits<T>::lowest();
  T hi = std::numeric_limits<T>::max();
};

class CliParser {
 public:
  explicit CliParser(std::string_view program_description);

  /// Binds `--key` to a numeric field.  Values must parse in full and fit
  /// both the field's type and `range`; unsigned fields (std::size_t,
  /// std::uint64_t, ...) accept k/m/g suffixes ("20k").
  template <typename T>
    requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
  CliParser& bind(std::string_view key, T* field, std::string_view help, Range<T> range = {}) {
    using Wide = std::conditional_t<std::is_floating_point_v<T>, double,
                                    std::conditional_t<std::is_signed_v<T>, std::int64_t,
                                                       std::uint64_t>>;
    const std::string name(key);
    return add(key, help, show(*field), "<value>", Kind::kValue,
               [field, range, name](std::string_view text) -> std::string {
                 Wide value{};
                 if (!parse_number(text, &value)) {
                   return "--" + name + " expects " + kind_name<T>() + ", got " +
                          std::string(text);
                 }
                 if (value < static_cast<Wide>(range.lo) || value > static_cast<Wide>(range.hi)) {
                   return "--" + name + " must be in [" + show(range.lo) + ", " +
                          show(range.hi) + "], got " + std::string(text);
                 }
                 *field = static_cast<T>(value);
                 return {};
               });
  }

  /// Binds a boolean.  `--key` alone sets true; `--key V` / `--key=V` take
  /// 0, 1, true or false.  A following token that starts with `--` is the
  /// next flag, not a value.
  CliParser& bind(std::string_view key, bool* field, std::string_view help);

  /// Binds a string field; any value is taken verbatim.
  CliParser& bind(std::string_view key, std::string* field, std::string_view help);

  /// Binds `--key` to one of `names`, matched case-insensitively (several
  /// names may map to one value); --help lists them and shows the first
  /// name of the field's current value as the default.
  template <typename T>
  CliParser& choice(std::string_view key, T* field, std::vector<std::pair<std::string, T>> names,
                    std::string_view help) {
    std::string listed;
    std::string current;
    for (const auto& [name, value] : names) {
      listed += (listed.empty() ? "" : " | ") + name;
      if (current.empty() && value == *field) current = name;
    }
    const std::string flag = "--" + std::string(key);
    return add(key, help, current, "<" + listed + ">", Kind::kValue,
               [field, names = std::move(names), flag, listed](std::string_view text) {
                 for (const auto& [name, value] : names) {
                   if (same_name(name, text)) {
                     *field = value;
                     return std::string();
                   }
                 }
                 return flag + " must be one of " + listed + ", got " + std::string(text);
               });
  }

  /// Registers a repeatable option: every `--key value` occurrence is
  /// appended to values(key), in argv order (cluster binaries pass one
  /// `--peer id=host:port` per member).
  CliParser& multi_option(std::string_view key, std::string_view help);

  /// Collected values of a repeatable option (empty when never given).
  const std::vector<std::string>& values(std::string_view key) const noexcept;

  /// Parses argv into the bound fields.  Unknown flags, missing values and
  /// rejected values produce false plus a diagnostic in `error`.  `--help`
  /// sets help_requested() and returns true without error.
  bool parse(int argc, const char* const* argv, std::string* error = nullptr);

  /// The usual main() prologue around parse(): prints the usage on --help
  /// (returns 0) or the diagnostic plus usage on a bad command line
  /// (returns 1).  nullopt means the program should run.
  std::optional<int> parse_main(int argc, const char* const* argv);

  bool help_requested() const noexcept { return help_requested_; }

  /// True when the user explicitly passed `--key` (in any form) on the
  /// command line, as opposed to the field resting on its default.  Lets
  /// binaries reject contradictory flag combinations without treating a
  /// default value as an expressed intent.
  bool given(std::string_view key) const noexcept;

  /// Usage text listing every registered option with its default.
  std::string help_text() const;

  /// Non-flag arguments in order.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

 private:
  enum class Kind { kValue, kFlag, kRepeatable };

  /// Stores a value into the bound field; returns a diagnostic or "".
  using Assign = std::function<std::string(std::string_view)>;

  struct Option {
    std::string key;
    std::string help;
    std::string default_value;
    std::string placeholder;
    Kind kind = Kind::kValue;
    Assign assign;
  };

  /// Strict whole-token parsers behind the numeric binds (false on junk,
  /// overflow, a sign the type cannot hold or a non-finite real).
  /// Unsigned values accept util::parse_size's k/m/g suffixes.
  static bool parse_number(std::string_view text, std::int64_t* out);
  static bool parse_number(std::string_view text, std::uint64_t* out);
  static bool parse_number(std::string_view text, double* out);

  /// ASCII case-insensitive equality of a choice name and a token.
  static bool same_name(std::string_view name, std::string_view text) noexcept;

  template <typename T>
  static std::string show(T value) {
    std::ostringstream out;
    out << +value;
    return out.str();
  }

  template <typename T>
  static const char* kind_name() {
    if constexpr (std::is_floating_point_v<T>) return "a number";
    if constexpr (std::is_signed_v<T>) return "an integer";
    return "a non-negative integer";
  }

  CliParser& add(std::string_view key, std::string_view help, std::string default_value,
                 std::string placeholder, Kind kind, Assign assign);
  const Option* find(std::string_view key) const noexcept;

  std::string description_;
  std::vector<Option> options_;
  std::map<std::string, std::vector<std::string>, std::less<>> multi_values_;
  std::vector<std::string> given_;  // keys the command line actually set
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

}  // namespace adc::util
