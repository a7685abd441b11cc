// Bit-exact DtaTrace (de)serialization for sweep checkpoints.
//
// A checkpoint pins one job's full characterization — corner,
// workload name, every sample including the toggle log — so a killed
// sweep can resume without recomputing completed corners. It is
// written and read through util::TextWriter / util::TextReader
// (util/text_io.hpp): doubles as "%a" hexfloats, which round-trip
// exactly, and the file ends with an "end" line, so a truncated write
// is always a parse error, never a shorter trace. The reader accepts
// only what the writer writes: operand words that fit 32 bits, toggle
// values 0 or 1, toggle times that are non-negative and never
// decrease, and nothing after the end line. Files are written with
// util::writeFileAtomic, so a reader never observes a half-written
// checkpoint.
//
// Format:
//   tevot-dtatrace v1
//   corner <voltage> <temperature>
//   workload <name, the rest of the line>
//   sim_events <n>
//   samples <n>
//   <a> <b> <prev_a> <prev_b> <delay_ps> <start_word> <settled_word>
//       <n_toggles> [<time_ps> <output_bit> <value>]...   (one line each)
//   end
#pragma once

#include <string>
#include <string_view>

#include "dta/dta.hpp"
#include "util/fault_injection.hpp"

namespace tevot::dta {

/// Checkpoint text of `trace`.
std::string traceToString(const DtaTrace& trace);

/// Parses checkpoint text. Throws util::StatusError (kParseError) on
/// any malformed, truncated, out-of-range or non-finite content.
DtaTrace traceFromString(std::string_view text);

/// Writes `trace` to `path` with util::writeFileAtomic; the io.open /
/// io.write fault points fire with `fault_key`. Throws
/// util::StatusError (kIoError, message includes the path and errno
/// text) on failure, and then `path` is left untouched.
void writeTraceFileAtomic(const std::string& path, const DtaTrace& trace,
                          util::FaultInjector* faults = nullptr,
                          std::string_view fault_key = {});

/// Reads a checkpoint file (io.open fault point applies). Throws
/// util::StatusError: kIoError when the file cannot be opened,
/// kParseError when its content is malformed.
DtaTrace readTraceFile(const std::string& path,
                       util::FaultInjector* faults = nullptr,
                       std::string_view fault_key = {});

/// Field-by-field bit-exact equality, toggles included.
bool tracesBitIdentical(const DtaTrace& a, const DtaTrace& b);

}  // namespace tevot::dta
