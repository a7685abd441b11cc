// Minimal Standard Delay Format (SDF) writer and parser.
//
// The paper's flow emits one SDF file per (V,T) corner from PrimeTime
// and back-annotates gate-level simulation with it. We reproduce that
// file boundary: liberty::CornerDelays can be serialized to an
// SDF 3.0-style text file (header + one CELL/IOPATH block per gate)
// and parsed back bit-exactly (delays are printed with enough digits
// to round-trip).
//
// Supported subset: DELAYFILE header fields (SDFVERSION, DESIGN,
// VOLTAGE, TEMPERATURE, TIMESCALE), per-gate CELL blocks with CELLTYPE,
// INSTANCE and a single ABSOLUTE IOPATH carrying (rise)(fall) triples
// with equal min:typ:max. This matches what the simulator consumes;
// interconnect delays, conditional paths and timing checks are out of
// scope and rejected by the parser. The parser reads with
// util::TextReader::token: '(', ')' and ':' are tokens of their own,
// "..." strings and // or /* */ comments are allowed.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "liberty/corner.hpp"
#include "netlist/netlist.hpp"

namespace tevot::sdf {

/// Writes `delays` for `nl` as SDF text.
void writeSdf(std::ostream& os, const netlist::Netlist& nl,
              const liberty::CornerDelays& delays);

/// Convenience: SDF text as a string.
std::string toSdfString(const netlist::Netlist& nl,
                        const liberty::CornerDelays& delays);

/// Parses SDF text produced by writeSdf back into CornerDelays for the
/// same netlist. Malformed input throws util::StatusError (kParseError,
/// "SDF parse error: ... at byte N"): a token the subset does not allow,
/// a triple whose three fields are not finite and equal, a DESIGN name,
/// CELLTYPE or gate count that contradicts the netlist, an INSTANCE
/// that is not 'g' and a gate index, or anything but whitespace after
/// the closing ')'.
liberty::CornerDelays parseSdfString(std::string_view text,
                                     const netlist::Netlist& nl);

/// Writes to / reads from a file path. The write is atomic
/// (util::writeFileAtomic); a failed open, read or write throws
/// util::StatusError (kIoError).
void writeSdfFile(const std::string& path, const netlist::Netlist& nl,
                  const liberty::CornerDelays& delays);
liberty::CornerDelays parseSdfFile(const std::string& path,
                                   const netlist::Netlist& nl);

}  // namespace tevot::sdf
