#include "sdf/sdf.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/status.hpp"
#include "util/text_io.hpp"

namespace tevot::sdf {
namespace {

std::string formatPs(double ps) {
  char buf[64];
  // 17 significant digits: doubles round-trip exactly.
  std::snprintf(buf, sizeof(buf), "%.17g", ps);
  return buf;
}

/// SDF tokens: parentheses and the ':' of a min:typ:max triple stand
/// alone, so "(1.5:1.5:1.5)" is seven tokens.
constexpr std::string_view kPunct = "():";

void expect(util::TextReader& in, const char* want) {
  if (in.token(kPunct, want) != want) {
    in.fail(std::string("expected '") + want + "'");
  }
}

/// The contents of a "..." token; a bare token stands for itself.
std::string_view unquoted(std::string_view token) {
  return token.starts_with('"') ? token.substr(1, token.size() - 2) : token;
}

/// "v:v:v" with three finite, equal fields; returns v.
double triple(util::TextReader& in, const char* what) {
  const double min = in.decimal(kPunct, what);
  expect(in, ":");
  const double typ = in.decimal(kPunct, what);
  expect(in, ":");
  const double max = in.decimal(kPunct, what);
  if (min != typ || typ != max) {
    in.fail(std::string("unequal min:typ:max in ") + what);
  }
  return typ;
}

/// The gate an INSTANCE names: 'g' and its index in the netlist.
netlist::GateId instance(util::TextReader& in, const netlist::Netlist& nl) {
  const std::string_view name = in.token(kPunct, "instance name");
  std::size_t id = nl.gateCount();
  if (name.starts_with('g')) {
    try {
      id = util::TextReader(name.substr(1)).integer<std::size_t>("instance");
    } catch (const util::StatusError&) {
      // Not a gate index; reported below with the whole name.
    }
  }
  if (id >= nl.gateCount()) {
    in.fail("instance '" + std::string(name) + "' is not a netlist gate");
  }
  return static_cast<netlist::GateId>(id);
}

liberty::CornerDelays parseSdf(util::TextReader& in,
                               const netlist::Netlist& nl) {
  liberty::CornerDelays delays;
  delays.rise_ps.assign(nl.gateCount(), 0.0);
  delays.fall_ps.assign(nl.gateCount(), 0.0);
  std::vector<bool> seen(nl.gateCount(), false);
  std::size_t cells_seen = 0;

  expect(in, "(");
  expect(in, "DELAYFILE");
  while (true) {
    const std::string_view open =
        in.token(kPunct, "header entry, CELL or ')'");
    if (open == ")") break;
    if (open != "(") in.fail("expected '('");
    const std::string_view keyword = in.token(kPunct, "section keyword");
    if (keyword == "SDFVERSION" || keyword == "TIMESCALE") {
      in.token(kPunct, "header value");
    } else if (keyword == "DESIGN") {
      if (unquoted(in.token(kPunct, "design name")) != nl.name()) {
        in.fail("DESIGN does not match netlist '" + nl.name() + "'");
      }
    } else if (keyword == "VOLTAGE") {
      delays.corner.voltage = triple(in, "VOLTAGE");
    } else if (keyword == "TEMPERATURE") {
      delays.corner.temperature = triple(in, "TEMPERATURE");
    } else if (keyword == "CELL") {
      // (CELLTYPE "...") (INSTANCE gN) (DELAY (ABSOLUTE (IOPATH ...)))
      expect(in, "(");
      expect(in, "CELLTYPE");
      const std::string_view celltype = unquoted(in.token(kPunct, "cell type"));
      expect(in, ")");
      expect(in, "(");
      expect(in, "INSTANCE");
      const netlist::GateId g = instance(in, nl);
      expect(in, ")");
      if (seen[g]) in.fail("duplicate instance g" + std::to_string(g));
      seen[g] = true;
      netlist::CellKind kind;
      if (!netlist::cellFromName(celltype, kind) || kind != nl.gate(g).kind) {
        in.fail("CELLTYPE '" + std::string(celltype) +
                "' contradicts netlist for g" + std::to_string(g));
      }
      for (const char* word : {"(", "DELAY", "(", "ABSOLUTE", "(", "IOPATH"}) {
        expect(in, word);
      }
      in.token(kPunct, "input port spec");   // "*"
      in.token(kPunct, "output port name");  // display name, unused
      expect(in, "(");
      delays.rise_ps[g] = triple(in, "IOPATH rise");
      expect(in, ")");
      expect(in, "(");
      delays.fall_ps[g] = triple(in, "IOPATH fall");
      expect(in, ")");
      expect(in, ")");  // IOPATH
      expect(in, ")");  // ABSOLUTE
      expect(in, ")");  // DELAY
      ++cells_seen;
    } else {
      in.fail("unsupported section '" + std::string(keyword) + "'");
    }
    expect(in, ")");
  }
  if (cells_seen != nl.gateCount()) {
    in.fail("cell count does not match netlist");
  }
  in.expectEnd("DELAYFILE");
  return delays;
}

}  // namespace

void writeSdf(std::ostream& os, const netlist::Netlist& nl,
              const liberty::CornerDelays& delays) {
  if (delays.gateCount() != nl.gateCount()) {
    throw std::invalid_argument("writeSdf: delay annotation mismatch");
  }
  os << "(DELAYFILE\n";
  os << "  (SDFVERSION \"3.0\")\n";
  os << "  (DESIGN \"" << nl.name() << "\")\n";
  os << "  (VOLTAGE " << formatPs(delays.corner.voltage) << ":"
     << formatPs(delays.corner.voltage) << ":"
     << formatPs(delays.corner.voltage) << ")\n";
  os << "  (TEMPERATURE " << formatPs(delays.corner.temperature) << ":"
     << formatPs(delays.corner.temperature) << ":"
     << formatPs(delays.corner.temperature) << ")\n";
  os << "  (TIMESCALE 1ps)\n";
  for (netlist::GateId g = 0; g < nl.gateCount(); ++g) {
    const netlist::Gate& gate = nl.gate(g);
    os << "  (CELL\n";
    os << "    (CELLTYPE \"" << netlist::cellName(gate.kind) << "\")\n";
    os << "    (INSTANCE g" << g << ")\n";
    os << "    (DELAY (ABSOLUTE\n";
    os << "      (IOPATH * " << nl.netDisplayName(gate.out) << " ("
       << formatPs(delays.rise_ps[g]) << ":" << formatPs(delays.rise_ps[g])
       << ":" << formatPs(delays.rise_ps[g]) << ") ("
       << formatPs(delays.fall_ps[g]) << ":" << formatPs(delays.fall_ps[g])
       << ":" << formatPs(delays.fall_ps[g]) << "))\n";
    os << "    ))\n";
    os << "  )\n";
  }
  os << ")\n";
}

std::string toSdfString(const netlist::Netlist& nl,
                        const liberty::CornerDelays& delays) {
  std::ostringstream os;
  writeSdf(os, nl, delays);
  return os.str();
}

liberty::CornerDelays parseSdfString(std::string_view text,
                                     const netlist::Netlist& nl) {
  util::TextReader in(text);
  try {
    return parseSdf(in, nl);
  } catch (const util::StatusError& error) {
    throw util::StatusError(
        util::Status::parseError("SDF parse error: " + error.status().message));
  }
}

void writeSdfFile(const std::string& path, const netlist::Netlist& nl,
                  const liberty::CornerDelays& delays) {
  util::writeFileAtomic(path, "writeSdfFile", [&](util::TextWriter& out) {
    out.text(toSdfString(nl, delays));
  });
}

liberty::CornerDelays parseSdfFile(const std::string& path,
                                   const netlist::Netlist& nl) {
  return parseSdfString(util::readFile(path, "parseSdfFile"), nl);
}

}  // namespace tevot::sdf
