#include "src/util/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace swdnn::util {

namespace {
[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("--" + key + ": expected " + expected +
                              ", got '" + value + "'");
}
}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      options_[std::string(arg)] = "1";
    } else {
      options_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  return options_.count(key) > 0;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& key,
                              std::int64_t fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    bad_value(key, it->second, "an integer");
  }
  return value;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    bad_value(key, it->second, "a finite number");
  }
  return value;
}

}  // namespace swdnn::util
