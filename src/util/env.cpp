#include "util/env.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

namespace tevot::util {

std::string envString(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  return raw;
}

long envInt(const char* name, long fallback) {
  const std::string raw = envString(name, "");
  if (raw.empty()) return fallback;
  char* end = nullptr;
  const long value = std::strtol(raw.c_str(), &end, 10);
  if (end == raw.c_str() || (end != nullptr && *end != '\0')) return fallback;
  return value;
}

double envDouble(const char* name, double fallback) {
  const std::string raw = envString(name, "");
  if (raw.empty()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || (end != nullptr && *end != '\0')) return fallback;
  return value;
}

bool envFlag(const char* name, bool fallback) {
  std::string raw = envString(name, "");
  if (raw.empty()) return fallback;
  std::transform(raw.begin(), raw.end(), raw.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return raw == "1" || raw == "true" || raw == "yes" || raw == "on";
}

bool fullScale() { return envFlag("TEVOT_FULL"); }

bool parseFiniteDouble(std::string_view text, double* out) {
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace tevot::util
