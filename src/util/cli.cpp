#include "util/cli.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace tpa::util {
namespace {

// True when all of `text` is one T that fits.
template <typename T>
bool parse_whole(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

[[noreturn]] void reject(const std::string& name, const std::string& value,
                         const char* problem) {
  throw std::invalid_argument("option --" + name + ": '" + value + "' " +
                              problem);
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_text) {
  specs_.push_back(Spec{name, help, default_text, /*is_flag=*/false});
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  specs_.push_back(Spec{name, help, "", /*is_flag=*/true});
}

const ArgParser::Spec* ArgParser::find_spec(const std::string& name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_inline_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline_value = true;
    }
    const Spec* spec = find_spec(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown option --%s\n%s", name.c_str(),
                   usage().c_str());
      return false;
    }
    if (spec->is_flag) {
      values_.emplace_back(name, has_inline_value ? value : "true");
      continue;
    }
    if (!has_inline_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "option --%s expects a value\n", name.c_str());
        return false;
      }
      value = argv[++i];
    }
    values_.emplace_back(name, std::move(value));
  }
  return true;
}

bool ArgParser::has(const std::string& name) const {
  return raw(name).has_value();
}

std::optional<std::string> ArgParser::raw(const std::string& name) const {
  // Last occurrence wins so that scripted callers can append overrides.
  std::optional<std::string> result;
  for (const auto& [key, value] : values_) {
    if (key == name) result = value;
  }
  return result;
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const auto value = raw(name);
  return value.has_value() ? *value : fallback;
}

std::optional<std::int64_t> ArgParser::get_int_if(
    const std::string& name, bool (*fits)(std::int64_t)) const {
  const auto value = raw(name);
  if (!value.has_value()) return std::nullopt;
  const char* end = value->data() + value->size();
  std::int64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(value->data(), end, parsed);
  if (ptr != end || ec == std::errc::invalid_argument) {
    reject(name, *value, "is not an integer");
  }
  if (ec != std::errc() || !fits(parsed)) {
    reject(name, *value, "is out of range");
  }
  return parsed;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto value = raw(name);
  if (!value.has_value()) return fallback;
  // "nan" and "inf" parse; the tools refuse them by option name downstream.
  double parsed = 0.0;
  if (!parse_whole(*value, parsed)) reject(name, *value, "is not a number");
  return parsed;
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const auto value = raw(name);
  if (!value.has_value()) return fallback;
  for (const char* yes : {"true", "1", "yes", "on", ""}) {
    if (*value == yes) return true;
  }
  for (const char* no : {"false", "0", "no", "off"}) {
    if (*value == no) return false;
  }
  reject(name, *value, "is not a boolean");
}

std::string ArgParser::usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& spec : specs_) {
    out << "  --" << spec.name;
    if (!spec.is_flag) out << " <value>";
    out << "\n      " << spec.help;
    if (!spec.default_text.empty()) out << " (default: " << spec.default_text
                                        << ")";
    out << "\n";
  }
  out << "  --help\n      show this message\n";
  return out.str();
}

}  // namespace tpa::util
