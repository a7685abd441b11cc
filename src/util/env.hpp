// Configuration parsing: environment-variable knobs and numeric
// command-line values.
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

namespace tevot::util {

/// Returns the value of environment variable `name`, or `fallback` if
/// unset or empty.
std::string envString(const char* name, const std::string& fallback);

/// Parses an integer environment variable; returns `fallback` on
/// absence or parse failure.
long envInt(const char* name, long fallback);

/// Parses a floating-point environment variable.
double envDouble(const char* name, double fallback);

/// True when the variable is set to 1/true/yes/on (case-insensitive).
bool envFlag(const char* name, bool fallback = false);

/// Convenience: the global "run at paper scale" switch (TEVOT_FULL).
bool fullScale();

/// Parses all of `text` as a finite double; false on empty text,
/// trailing characters, NaN or infinity.
bool parseFiniteDouble(std::string_view text, double* out);

/// The most worker threads a `--jobs` / TEVOT_JOBS value may ask for.
inline constexpr double kMaxJobs = 256;

/// The largest integer a double holds exactly (2^53): the upper bound
/// for an integer flag that has no smaller natural one, such as a seed.
inline constexpr double kMaxExactInteger = 9007199254740992.0;

/// Parses a numeric flag value into `*out`: all of `text` must be a
/// finite number in [lo, hi], and a whole one when T is integral.
/// False (`*out` untouched) otherwise, so a typo is a usage error
/// rather than a silent 0, NaN or wrapped-around value.
template <typename T>
bool parseNumber(std::string_view text, double lo, double hi, T* out) {
  double value = 0.0;
  if (!parseFiniteDouble(text, &value) || value < lo || value > hi ||
      (std::is_integral_v<T> && value != std::trunc(value))) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

}  // namespace tevot::util
