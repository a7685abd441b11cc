// Lint findings and the aggregated report.
//
// A Finding is one diagnostic from one rule: a stable rule ID
// ("NL001"), a severity, a location string naming the offending
// net/gate/artifact, and a human message. Rules append Findings into
// a LintReport, which knows how to render itself as text (for
// terminals) and JSON (for CI artifacts), and how to summarize
// severity counts with waived findings excluded from the verdict.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace tevot::lint {

enum class Severity { kInfo, kWarning, kError };

/// "info" / "warning" / "error".
std::string_view severityName(Severity severity);

/// Parses a name produced by severityName(); returns false on failure.
bool severityFromName(std::string_view name, Severity& severity);

/// One diagnostic. `location` is the waiver-matching key: "net:<name>"
/// for nets, "gate:<output-net-name>" for gates, "cell:<CELL>" for
/// library-level findings, and "-" for design-wide findings.
struct Finding {
  std::string rule;
  Severity severity = Severity::kWarning;
  std::string location;
  std::string message;
  bool waived = false;
};

/// Aggregated result of one lint run over one design.
struct LintReport {
  std::string design;
  std::vector<std::string> rules_run;
  std::vector<Finding> findings;

  /// Severity counts over non-waived findings.
  std::size_t errorCount() const;
  std::size_t warningCount() const;
  std::size_t infoCount() const;
  /// Findings suppressed by a waiver (any severity).
  std::size_t waivedCount() const;

  /// No un-waived error-severity findings.
  bool clean() const { return errorCount() == 0; }

  /// Terminal rendering: one line per finding plus a summary line.
  std::string toText() const;

  /// Compact JSON object (stable key order, findings in emit order, no
  /// trailing newline):
  /// {"design":...,"rules_run":[...],"summary":{...},"findings":[...]}
  std::string toJson() const;
};

}  // namespace tevot::lint
