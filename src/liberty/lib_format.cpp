#include "liberty/lib_format.hpp"

#include <cstdio>
#include <sstream>
#include <string_view>

#include "util/status.hpp"
#include "util/text_io.hpp"

namespace tevot::liberty {
namespace {

std::string formatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Liberty tokens: "{}():;" are tokens of their own.
constexpr std::string_view kPunct = "{}():;";

void expect(util::TextReader& in, const char* want) {
  if (in.token(kPunct, want) != want) {
    in.fail(std::string("expected '") + want + "'");
  }
}

/// Skips ": value ;", the rest of an attribute this parser ignores.
void skipAttribute(util::TextReader& in) {
  expect(in, ":");
  in.token(kPunct, "attribute value");
  expect(in, ";");
}

/// A numeric attribute of a group: its name and where it lands.
template <typename Group>
struct Number {
  const char* name;
  double Group::*field;
};

constexpr Number<VtParams> kLibraryNumbers[] = {
    {"nom_voltage", &VtParams::vnom},
    {"nom_temperature", &VtParams::tnom_c},
    {"tevot_vth0", &VtParams::vth0},
    {"tevot_dvth_dt", &VtParams::dvth_dt},
    {"tevot_alpha", &VtParams::alpha},
    {"tevot_mobility_exponent", &VtParams::mobility_exponent},
    {"tevot_vth_sigma", &VtParams::vth_sigma},
};
constexpr Number<CellVtSensitivity> kCellNumbers[] = {
    {"tevot_alpha_delta", &CellVtSensitivity::alpha_delta},
    {"tevot_mobility_delta", &CellVtSensitivity::mobility_delta},
};
constexpr Number<CellTiming> kTimingNumbers[] = {
    {"intrinsic_rise", &CellTiming::intrinsic_rise_ps},
    {"intrinsic_fall", &CellTiming::intrinsic_fall_ps},
    {"rise_resistance", &CellTiming::slope_rise_ps},
    {"fall_resistance", &CellTiming::slope_fall_ps},
};

/// When `name` is in `numbers`, reads ": <number> ;" into its field of
/// `group` and returns true.
template <typename Group, std::size_t N>
bool readNumber(util::TextReader& in, const Number<Group> (&numbers)[N],
                std::string_view name, Group& group) {
  for (const Number<Group>& number : numbers) {
    if (name != number.name) continue;
    expect(in, ":");
    group.*number.field = in.decimal(kPunct, number.name);
    expect(in, ";");
    return true;
  }
  return false;
}

/// pin (<name>) { ... } after "pin": the timing group's numbers go into
/// `timing`, other pin attributes (direction) are skipped.
void parsePin(util::TextReader& in, CellTiming& timing) {
  expect(in, "(");
  in.token(kPunct, "pin name");
  expect(in, ")");
  expect(in, "{");
  for (std::string_view name;
       (name = in.token(kPunct, "pin attribute or '}'")) != "}";) {
    if (name != "timing") {
      skipAttribute(in);
      continue;
    }
    expect(in, "(");
    expect(in, ")");
    expect(in, "{");
    for (std::string_view arc;
         (arc = in.token(kPunct, "timing attribute or '}'")) != "}";) {
      if (!readNumber(in, kTimingNumbers, arc, timing)) {
        in.fail("unsupported timing attribute '" + std::string(arc) + "'");
      }
    }
  }
}

/// cell (<name>) { ... } after "cell"; other cell attributes (area,
/// ...) are skipped.
void parseCell(util::TextReader& in, CellLibrary& cells) {
  expect(in, "(");
  const std::string_view cell_name = in.token(kPunct, "cell name");
  netlist::CellKind kind;
  if (!netlist::cellFromName(cell_name, kind)) {
    in.fail("unknown cell '" + std::string(cell_name) + "'");
  }
  expect(in, ")");
  expect(in, "{");
  CellTiming timing{};
  CellVtSensitivity sensitivity{};
  for (std::string_view name;
       (name = in.token(kPunct, "cell attribute, pin or '}'")) != "}";) {
    if (name == "pin") {
      parsePin(in, timing);
    } else if (!readNumber(in, kCellNumbers, name, sensitivity)) {
      skipAttribute(in);
    }
  }
  cells.setTiming(kind, timing);
  cells.setVtSensitivity(kind, sensitivity);
}

LibertyLibrary parseLiberty(util::TextReader& in) {
  LibertyLibrary library;
  library.cells = CellLibrary();  // zeroed; file contents fill it in
  expect(in, "library");
  expect(in, "(");
  library.name = in.token(kPunct, "library name");
  expect(in, ")");
  expect(in, "{");
  for (std::string_view name;
       (name = in.token(kPunct, "attribute, cell or '}'")) != "}";) {
    if (name == "cell") {
      parseCell(in, library.cells);
    } else if (!readNumber(in, kLibraryNumbers, name, library.vt_params)) {
      skipAttribute(in);  // delay_model, time_unit, ...
    }
  }
  in.expectEnd("library group");
  return library;
}

}  // namespace

void writeLiberty(std::ostream& os, const LibertyLibrary& library) {
  const VtParams& vt = library.vt_params;
  os << "/* tevot cell timing library (generic CMOS delay model) */\n";
  os << "library (" << library.name << ") {\n";
  os << "  delay_model : generic_cmos;\n";
  os << "  time_unit : \"1ps\";\n";
  os << "  nom_voltage : " << formatNumber(vt.vnom) << ";\n";
  os << "  nom_temperature : " << formatNumber(vt.tnom_c) << ";\n";
  os << "  tevot_vth0 : " << formatNumber(vt.vth0) << ";\n";
  os << "  tevot_dvth_dt : " << formatNumber(vt.dvth_dt) << ";\n";
  os << "  tevot_alpha : " << formatNumber(vt.alpha) << ";\n";
  os << "  tevot_mobility_exponent : "
     << formatNumber(vt.mobility_exponent) << ";\n";
  os << "  tevot_vth_sigma : " << formatNumber(vt.vth_sigma) << ";\n";
  for (int k = 0; k < netlist::kCellKindCount; ++k) {
    const auto kind = static_cast<netlist::CellKind>(k);
    const CellTiming& timing = library.cells.timing(kind);
    const CellVtSensitivity& sensitivity =
        library.cells.vtSensitivity(kind);
    os << "  cell (" << netlist::cellName(kind) << ") {\n";
    os << "    tevot_alpha_delta : "
       << formatNumber(sensitivity.alpha_delta) << ";\n";
    os << "    tevot_mobility_delta : "
       << formatNumber(sensitivity.mobility_delta) << ";\n";
    os << "    pin (Y) {\n";
    os << "      direction : output;\n";
    os << "      timing () {\n";
    os << "        intrinsic_rise : "
       << formatNumber(timing.intrinsic_rise_ps) << ";\n";
    os << "        intrinsic_fall : "
       << formatNumber(timing.intrinsic_fall_ps) << ";\n";
    os << "        rise_resistance : "
       << formatNumber(timing.slope_rise_ps) << ";\n";
    os << "        fall_resistance : "
       << formatNumber(timing.slope_fall_ps) << ";\n";
    os << "      }\n";
    os << "    }\n";
    os << "  }\n";
  }
  os << "}\n";
}

std::string toLibertyString(const LibertyLibrary& library) {
  std::ostringstream os;
  writeLiberty(os, library);
  return os.str();
}

void writeLibertyFile(const std::string& path,
                      const LibertyLibrary& library) {
  util::writeFileAtomic(path, "writeLibertyFile", [&](util::TextWriter& out) {
    out.text(toLibertyString(library));
  });
}

LibertyLibrary parseLibertyString(std::string_view text) {
  util::TextReader in(text);
  try {
    return parseLiberty(in);
  } catch (const util::StatusError& error) {
    throw util::StatusError(util::Status::parseError(
        "Liberty parse error: " + error.status().message));
  }
}

LibertyLibrary parseLibertyFile(const std::string& path) {
  return parseLibertyString(util::readFile(path, "parseLibertyFile"));
}

}  // namespace tevot::liberty
