#include "util/cli.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iostream>

#include "util/string_util.h"

namespace adc::util {

bool CliParser::parse_number(std::string_view text, std::int64_t* out) {
  const auto parsed = parse_int(text);
  if (parsed) *out = *parsed;
  return parsed.has_value();
}

bool CliParser::parse_number(std::string_view text, std::uint64_t* out) {
  const auto parsed = parse_size(text);
  if (parsed) *out = *parsed;
  return parsed.has_value();
}

bool CliParser::parse_number(std::string_view text, double* out) {
  const auto parsed = parse_double(text);
  if (!parsed || !std::isfinite(*parsed)) return false;
  *out = *parsed;
  return true;
}

bool CliParser::same_name(std::string_view name, std::string_view text) noexcept {
  return std::equal(name.begin(), name.end(), text.begin(), text.end(), [](char a, char b) {
    return std::tolower(static_cast<unsigned char>(a)) == std::tolower(static_cast<unsigned char>(b));
  });
}

CliParser::CliParser(std::string_view program_description)
    : description_(program_description) {}

CliParser& CliParser::add(std::string_view key, std::string_view help,
                          std::string default_value, std::string placeholder, Kind kind,
                          Assign assign) {
  options_.push_back(Option{std::string(key), std::string(help), std::move(default_value),
                            std::move(placeholder), kind, std::move(assign)});
  return *this;
}

CliParser& CliParser::bind(std::string_view key, bool* field, std::string_view help) {
  const std::string flag = "--" + std::string(key);
  return add(key, help, *field ? "true" : "false", "[0|1]", Kind::kFlag,
             [field, flag](std::string_view text) -> std::string {
               if (text == "0" || text == "false") {
                 *field = false;
               } else if (text == "1" || text == "true") {
                 *field = true;
               } else {
                 return flag + " expects 0, 1, true or false, got " + std::string(text);
               }
               return {};
             });
}

CliParser& CliParser::bind(std::string_view key, std::string* field, std::string_view help) {
  return add(key, help, *field, "<value>", Kind::kValue, [field](std::string_view text) {
    *field = std::string(text);
    return std::string();
  });
}

CliParser& CliParser::multi_option(std::string_view key, std::string_view help) {
  multi_values_[std::string(key)];  // reserve the slot so values() can return it
  return add(key, help, "", "<value>", Kind::kRepeatable, nullptr);
}

const std::vector<std::string>& CliParser::values(std::string_view key) const noexcept {
  static const std::vector<std::string> kEmpty;
  const auto it = multi_values_.find(key);
  return it == multi_values_.end() ? kEmpty : it->second;
}

bool CliParser::given(std::string_view key) const noexcept {
  for (const auto& seen : given_) {
    if (seen == key) return true;
  }
  return false;
}

const CliParser::Option* CliParser::find(std::string_view key) const noexcept {
  for (const auto& opt : options_) {
    if (opt.key == key) return &opt;
  }
  return nullptr;
}

bool CliParser::parse(int argc, const char* const* argv, std::string* error) {
  const auto fail = [error](std::string message) {
    if (error) *error = std::move(message);
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return true;
    }
    if (!starts_with(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string_view key = arg;
    std::string_view value;
    bool has_value = false;
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    const Option* opt = find(key);
    if (opt == nullptr) return fail("unknown option --" + std::string(key));
    if (!given(opt->key)) given_.push_back(opt->key);
    if (!has_value) {
      const bool next_is_value = i + 1 < argc && !starts_with(argv[i + 1], "--");
      if (next_is_value) {
        value = argv[++i];
      } else if (opt->kind == Kind::kFlag) {
        value = "true";
      } else {
        return fail("option --" + std::string(key) + " expects a value");
      }
    }
    if (opt->kind == Kind::kRepeatable) {
      multi_values_[opt->key].emplace_back(value);
    } else if (std::string message = opt->assign(value); !message.empty()) {
      return fail(std::move(message));
    }
  }
  return true;
}

std::optional<int> CliParser::parse_main(int argc, const char* const* argv) {
  std::string error;
  if (!parse(argc, argv, &error)) {
    std::cerr << error << '\n' << help_text();
    return 1;
  }
  if (help_requested_) {
    std::cout << help_text();
    return 0;
  }
  return std::nullopt;
}

std::string CliParser::help_text() const {
  std::ostringstream out;
  out << description_ << "\n\nOptions:\n";
  for (const auto& opt : options_) {
    out << "  --" << opt.key << ' ' << opt.placeholder << "\n      " << opt.help;
    if (opt.kind == Kind::kRepeatable) out << " (repeatable)";
    if (!opt.default_value.empty()) out << " (default: " << opt.default_value << ")";
    out << '\n';
  }
  out << "  --help\n      Show this message.\n";
  return out.str();
}

}  // namespace adc::util
