// Configuration parsing: environment-variable knobs and command-line
// flags.
//
// Benchmarks default to reduced scales so the whole suite finishes in
// minutes; setting TEVOT_FULL=1 restores paper-scale sweeps. These
// helpers centralize the parsing so every binary interprets the knobs
// identically.
#pragma once

#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/text_io.hpp"

namespace tevot::util {

/// Returns the value of environment variable `name`, or `fallback` if
/// unset or empty.
std::string envString(const char* name, const std::string& fallback);

/// True when the variable is set to 1/true/yes/on (case-insensitive).
bool envFlag(const char* name, bool fallback = false);

/// Convenience: the global "run at paper scale" switch (TEVOT_FULL).
bool fullScale();

/// The most worker threads a `--jobs` / TEVOT_JOBS value may ask for.
inline constexpr double kMaxJobs = 256;

/// The largest integer a double holds exactly (2^53): the upper bound
/// for an integer flag that has no smaller natural one, such as a seed.
inline constexpr double kMaxExactInteger = 9007199254740992.0;

/// Parses a numeric flag value into `*out`: all of `text` must be a
/// finite number (util::parseReal) in [lo, hi], and a whole one when T
/// is integral.
/// False (`*out` untouched) otherwise, so a typo is a usage error
/// rather than a silent 0, NaN or wrapped-around value.
template <typename T>
bool parseNumber(std::string_view text, double lo, double hi, T* out) {
  double value = 0.0;
  if (!parseReal(text, &value) || value < lo || value > hi ||
      (std::is_integral_v<T> && value != std::trunc(value))) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

/// A tool's command line, read flag by flag. value() and number() take
/// the argument after the current flag; on a missing or malformed one
/// they say so on stderr ("<tool>: --port needs a value", "<tool>:
/// --port must be a whole number in [1, 65535], not 'x'") and return
/// nullptr / false, and the tool answers with its usage message.
class FlagReader {
 public:
  FlagReader(const char* tool, int argc, char** argv)
      : tool_(tool), argc_(argc), argv_(argv) {}

  /// Moves to the next flag; false after the last.
  bool next();
  const std::string& flag() const { return flag_; }
  /// The argument after the flag.
  const char* value();
  /// The argument after the flag as a number in [lo, hi] (parseNumber).
  template <typename T>
  bool number(double lo, double hi, T* out) {
    const char* text = value();
    if (text == nullptr) return false;
    if (parseNumber(text, lo, hi, out)) return true;
    badValue(text, lo, hi, std::is_integral_v<T>);
    return false;
  }

 private:
  void badValue(const char* text, double lo, double hi, bool whole) const;

  const char* tool_;
  int argc_;
  char** argv_;
  int at_ = 0;
  std::string flag_;
};

}  // namespace tevot::util
