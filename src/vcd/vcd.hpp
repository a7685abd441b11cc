// Value Change Dump (VCD) writer and parser.
//
// The paper's DTA phase runs back-annotated gate-level simulation in
// ModelSim, dumps the switching activity of the observed nets (the FU
// output bits) to VCD, and extracts per-cycle dynamic delays with a
// Python parser. This module reproduces that file boundary: the timing
// simulator can dump its toggle activity as IEEE 1364 VCD (scalar
// signals, ps timescale), and the parser recovers time-ordered value
// changes that dta:: turns back into per-cycle delays.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace tevot::vcd {

using SignalId = std::uint32_t;

/// One value change of one scalar signal.
struct Change {
  std::uint64_t time_ps;
  SignalId signal;
  bool value;
};

/// Parsed VCD content.
struct VcdData {
  std::string timescale;
  std::vector<std::string> signal_names;  ///< index by SignalId
  std::vector<Change> changes;            ///< ordered by time

  /// Index of a signal by name; throws std::out_of_range if missing.
  SignalId signal(const std::string& name) const;
};

/// Streams VCD text. Signals must all be registered before the first
/// value change; times must be non-decreasing.
class VcdWriter {
 public:
  explicit VcdWriter(std::ostream& os, std::string module = "top");

  /// Registers a scalar signal; returns its id.
  SignalId addSignal(const std::string& name);

  /// Writes the declaration header and initial values (all zero).
  void beginDump();

  /// Emits one value change at `time_ps`.
  void change(std::uint64_t time_ps, SignalId signal, bool value);

  /// Emits a final timestamp so readers see the full time span.
  void finish(std::uint64_t end_time_ps);

 private:
  std::string idCode(SignalId signal) const;

  std::ostream& os_;
  std::string module_;
  std::vector<std::string> names_;
  std::uint64_t current_time_ = 0;
  bool header_written_ = false;
  bool time_emitted_ = false;
};

/// Parses VCD text (the subset produced by VcdWriter: scalar signals,
/// one module scope, 0/1 values), split into whitespace-separated words
/// by util::TextReader::word. Malformed input throws util::StatusError
/// (kParseError, "VCD parse error: ... at byte N"): a section without
/// its $end, a $var that is not scalar, an $enddefinitions not followed
/// by $end, a $end that closes no $dumpvars, a $var that reuses an id
/// code, a timestamp that is not a whole unsigned number or is earlier
/// than the one before it, or a value change before $enddefinitions,
/// without an id code or for an unknown signal. VCD has no end marker:
/// a file cut after a whole record, or inside a timestamp's digits,
/// parses as the shorter dump.
VcdData parseVcdString(std::string_view text);

}  // namespace tevot::vcd
