// Liberty (.lib) writer and parser for the cell timing library.
//
// Serializes the CellLibrary (plus the VtModel parameters) as a
// Liberty-style text library using the classic generic-CMOS delay
// attributes: per output pin, `intrinsic_rise`/`intrinsic_fall` and
// `rise_resistance`/`fall_resistance` (the per-fanout slope, with a
// unit load per fanin pin). The V/T model parameters and per-cell
// sensitivity deltas travel as `tevot_*` user attributes, which the
// Liberty grammar permits. Round-trips bit-exactly.
//
// Supported subset: one `library` group; scalar `name : value;`
// attributes; `cell`/`pin`/`timing` groups; /* */ and // comments,
// "..." values. The parser reads with util::TextReader::token, with
// "{}():;" as tokens of their own. Lookup tables (NLDM) and anything
// else are rejected with a diagnostic.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "liberty/cell_library.hpp"
#include "liberty/vt_model.hpp"

namespace tevot::liberty {

struct LibertyLibrary {
  std::string name = "tevot45";
  CellLibrary cells;
  VtParams vt_params;
};

void writeLiberty(std::ostream& os, const LibertyLibrary& library);
std::string toLibertyString(const LibertyLibrary& library);
/// Writes atomically (util::writeFileAtomic); a failed open or write
/// throws util::StatusError (kIoError) and leaves `path` as it was.
void writeLibertyFile(const std::string& path,
                      const LibertyLibrary& library);

/// Parses the subset written by writeLiberty. Cells missing from the
/// file keep zeroed timing. Malformed input throws util::StatusError
/// (kParseError, "Liberty parse error: ... at byte N"): an unknown cell
/// or timing attribute, a numeric attribute that is not one finite
/// decimal, a group cut short, or anything but whitespace after the
/// library's closing '}'.
LibertyLibrary parseLibertyString(std::string_view text);
/// A failed open or read throws util::StatusError (kIoError).
LibertyLibrary parseLibertyFile(const std::string& path);

}  // namespace tevot::liberty
