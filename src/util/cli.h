#pragma once
// Tiny "--key=value" command-line parser for examples and bench binaries.
//
// We deliberately avoid a heavyweight flags library; the binaries take a
// handful of integer/string options each ("--batch=128", "--plan=batch").

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace swdnn::util {

class CliArgs {
 public:
  /// Parses argv; unrecognized positional arguments are collected
  /// separately. Accepts "--key=value" and bare "--flag" (value "1").
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Numeric values must be one complete, in-range number; anything
  /// else throws std::invalid_argument naming the flag.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

  const std::map<std::string, std::string>& options() const {
    return options_;
  }

 private:
  std::map<std::string, std::string> options_;
};

}  // namespace swdnn::util
