// Small command-line argument parser for the tools, benches and examples.
//
// Supports `--name value`, `--name=value` and boolean `--flag` forms, typed
// accessors with defaults, required options, and generated --help text.
// Typed accessors are strict: a value that does not parse whole is an
// error naming the option, never a silent prefix or a fallback.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace tpa::util {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Declares an option (for --help).  `default_text` is shown to the user;
  /// it does not set a value.
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_text = "");
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv.  Returns false (and prints usage) on unknown options,
  /// missing values, or --help.
  bool parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  /// Typed accessors return `fallback` when the option is absent.  A
  /// present value must parse whole: get_int<T> takes a decimal integer
  /// that T holds (and an int64 does), get_double anything strtod reads
  /// that does not overflow (including nan and inf, for the caller to
  /// judge), get_bool one of true/false/1/0/yes/no/on/off or empty (true).
  /// Anything else throws std::invalid_argument "option --<name>: '<value>'
  /// is not ..." (or "... is out of range" for an integer T cannot hold)
  /// rather than running a configuration the user did not ask for.
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  template <typename T>
  T get_int(const std::string& name, T fallback) const {
    const auto value =
        get_int_if(name, [](std::int64_t v) { return std::in_range<T>(v); });
    return value.has_value() ? static_cast<T>(*value) : fallback;
  }
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  /// Positional arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Renders the usage/help text.
  std::string usage() const;

 private:
  struct Spec {
    std::string name;
    std::string help;
    std::string default_text;
    bool is_flag = false;
  };

  const Spec* find_spec(const std::string& name) const;
  std::optional<std::string> raw(const std::string& name) const;
  /// The value of `name` as an int64 that `fits`; nullopt if absent.
  std::optional<std::int64_t> get_int_if(const std::string& name,
                                         bool (*fits)(std::int64_t)) const;

  std::string program_;
  std::string description_;
  std::vector<Spec> specs_;
  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::string> positional_;
};

}  // namespace tpa::util
