#include "util/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace tevot::util {

std::string envString(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  return raw;
}

bool envFlag(const char* name, bool fallback) {
  std::string raw = envString(name, "");
  if (raw.empty()) return fallback;
  std::transform(raw.begin(), raw.end(), raw.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return raw == "1" || raw == "true" || raw == "yes" || raw == "on";
}

bool fullScale() { return envFlag("TEVOT_FULL"); }

bool FlagReader::next() {
  if (++at_ >= argc_) return false;
  flag_ = argv_[at_];
  return true;
}

const char* FlagReader::value() {
  if (at_ + 1 >= argc_) {
    std::fprintf(stderr, "%s: %s needs a value\n", tool_, flag_.c_str());
    return nullptr;
  }
  return argv_[++at_];
}

void FlagReader::badValue(const char* text, double lo, double hi,
                          bool whole) const {
  std::fprintf(stderr, "%s: %s must be a %snumber in [%g, %g], not '%s'\n",
               tool_, flag_.c_str(), whole ? "whole " : "", lo, hi, text);
}

}  // namespace tevot::util
