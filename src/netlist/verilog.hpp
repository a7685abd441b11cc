// Structural Verilog netlist writer and parser.
//
// The paper's flow starts from generated RTL and a synthesized
// gate-level netlist; this module provides that file boundary: any
// Netlist can be exported as a flat structural Verilog module over
// the primitive cell set (one instance per gate, CELLNAME gN (.Y(out),
// .A(in0), .B(in1), .C(in2))) and re-imported bit-exactly, so
// externally produced netlists over the same cell library can be
// characterized by this flow.
//
// Supported subset: one module; `input`/`output`/`wire` scalar
// declarations; primitive-cell instances with named port connections
// (.Y/.A/.B/.C); `1'b0`/`1'b1` constant connections; `assign out = in;`
// aliases for outputs driven by named nets; // and /* */ comments.
// The parser reads with util::TextReader::token, with "();,.=" as
// tokens of their own. Vectors, behavioural constructs and hierarchies
// are rejected with a diagnostic.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace tevot::netlist {

/// Writes `nl` as a structural Verilog module named after the
/// netlist.
void writeVerilog(std::ostream& os, const Netlist& nl);
std::string toVerilogString(const Netlist& nl);
/// Writes atomically (util::writeFileAtomic); a failed open or write
/// throws util::StatusError (kIoError) and leaves `path` as it was.
void writeVerilogFile(const std::string& path, const Netlist& nl);

/// Parses a structural Verilog module (the subset above) back into a
/// Netlist. Gate creation order follows a topological order of the
/// parsed instances (instances may appear in any order in the file).
/// Unsupported or malformed input throws util::StatusError
/// (kParseError, "Verilog parse error: ... at byte N"), as do a port
/// list that is not exactly the declared inputs and outputs, an
/// `assign` onto an input, an instance graph with a cycle, an undriven
/// output and anything but whitespace after `endmodule`.
Netlist parseVerilogString(std::string_view text);
/// A failed open or read throws util::StatusError (kIoError).
Netlist parseVerilogFile(const std::string& path);

}  // namespace tevot::netlist
