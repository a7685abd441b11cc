// Waiver files: reviewed suppressions of known lint findings.
//
// Text format, one waiver per line:
//
//     # comment lines and blank lines are ignored
//     NL004 gate:sum_3       # exact rule + location
//     NL005 *                # waive a whole rule
//     XA003 gate:mul_*       # trailing-* glob on the location
//
// A waiver matches a finding when the rule ID is equal and the
// location pattern matches exactly or via a single trailing `*`
// wildcard. Matching findings stay in the report but are marked
// waived and excluded from the error verdict. Waivers that never
// matched anything are themselves reported (rule WV001), so stale
// suppressions rot visibly instead of silently.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/finding.hpp"

namespace tevot::lint {

struct Waiver {
  std::string rule;
  std::string pattern;  ///< location, optionally ending in `*`
  std::string comment;  ///< trailing `# ...` text, if any
  int line = 0;         ///< 1-based line in the waiver file
};

/// Returns whether `pattern` matches `location` (exact, or prefix
/// match when the pattern ends in `*`).
bool waiverPatternMatches(std::string_view pattern,
                          std::string_view location);

class WaiverSet {
 public:
  WaiverSet() = default;

  /// Parses the waiver file format. Throws std::runtime_error with a
  /// line diagnostic on a malformed line.
  static WaiverSet parseString(const std::string& text);
  /// parseString over util::readFile: also throws util::StatusError
  /// (kIoError, with the path and errno text) when the file cannot be
  /// read.
  static WaiverSet parseFile(const std::string& path);

  const std::vector<Waiver>& waivers() const { return waivers_; }

  /// Returns whether some waiver suppresses `finding`, marking that
  /// waiver used.
  bool matches(const Finding& finding);

  /// Waivers never consumed by matches() since construction.
  std::vector<Waiver> unused() const;

 private:
  std::vector<Waiver> waivers_;
  std::vector<bool> used_;
};

}  // namespace tevot::lint
