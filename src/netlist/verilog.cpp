#include "netlist/verilog.hpp"

#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/status.hpp"
#include "util/text_io.hpp"

namespace tevot::netlist {
namespace {

/// Legal-Verilog identifier from a net display name ("a[3]" -> "a_3").
std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
        c == '$') {
      out.push_back(c);
    } else if (c == '[') {
      out.push_back('_');
    }
    // ']' and any other punctuation are dropped.
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), 'n');
  }
  return out;
}

/// Port names used by the writer for instance pins.
constexpr const char* kPinNames[3] = {"A", "B", "C"};

}  // namespace

void writeVerilog(std::ostream& os, const Netlist& nl) {
  // Canonical identifier per net: inputs keep (unique-ified) names,
  // everything else is positional.
  std::vector<std::string> net_name(nl.netCount());
  std::map<std::string, int> used;
  for (const NetId in : nl.inputs()) {
    std::string name = sanitize(nl.netDisplayName(in));
    if (used.count(name)) {
      name += "_u" + std::to_string(used[name]++);
    } else {
      used[name] = 1;
    }
    net_name[in] = name;
  }
  for (NetId n = 0; n < nl.netCount(); ++n) {
    // snprintf instead of "n" + to_string(n): GCC 12's -O3 inliner
    // raises a -Wrestrict false positive on the operator+ chain.
    if (net_name[n].empty()) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "n%u", n);
      net_name[n] = buf;
    }
  }

  // Output port names (aliases, see header).
  std::vector<std::string> out_port;
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    std::string name = sanitize(nl.netDisplayName(nl.outputs()[i]));
    if (used.count(name)) {
      name = "out_" + name + "_u" + std::to_string(used[name]++);
    } else {
      used[name] = 1;
    }
    out_port.push_back(name);
  }

  os << "// Structural netlist generated by tevot\n";
  os << "module " << nl.name() << " (";
  bool first = true;
  for (const NetId in : nl.inputs()) {
    os << (first ? "" : ", ") << net_name[in];
    first = false;
  }
  for (const std::string& port : out_port) {
    os << (first ? "" : ", ") << port;
    first = false;
  }
  os << ");\n";
  for (const NetId in : nl.inputs()) {
    os << "  input " << net_name[in] << ";\n";
  }
  for (const std::string& port : out_port) {
    os << "  output " << port << ";\n";
  }
  for (NetId n = 0; n < nl.netCount(); ++n) {
    if (nl.net(n).driver != kNoGate) {
      os << "  wire " << net_name[n] << ";\n";
    }
  }
  for (GateId g = 0; g < nl.gateCount(); ++g) {
    const Gate& gate = nl.gate(g);
    if (gate.kind == CellKind::kConst0) {
      os << "  assign " << net_name[gate.out] << " = 1'b0;\n";
      continue;
    }
    if (gate.kind == CellKind::kConst1) {
      os << "  assign " << net_name[gate.out] << " = 1'b1;\n";
      continue;
    }
    os << "  " << cellName(gate.kind) << " g" << g << " (.Y("
       << net_name[gate.out] << ")";
    for (int i = 0; i < gate.fanin; ++i) {
      os << ", ." << kPinNames[i] << "(" << net_name[gate.in[i]] << ")";
    }
    os << ");\n";
  }
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    os << "  assign " << out_port[i] << " = " << net_name[nl.outputs()[i]]
       << ";\n";
  }
  os << "endmodule\n";
}

std::string toVerilogString(const Netlist& nl) {
  std::ostringstream os;
  writeVerilog(os, nl);
  return os.str();
}

void writeVerilogFile(const std::string& path, const Netlist& nl) {
  util::writeFileAtomic(path, "writeVerilogFile", [&](util::TextWriter& out) {
    out.text(toVerilogString(nl));
  });
}

namespace {

/// Verilog tokens: "();,.=" are tokens of their own.
constexpr std::string_view kPunct = "();,.=";

void expect(util::TextReader& in, const char* want) {
  if (in.token(kPunct, want) != want) {
    in.fail(std::string("expected '") + want + "'");
  }
}

struct Instance {
  CellKind kind;
  std::string name;
  std::string y;
  std::vector<std::string> ins;  // by pin order A, B, C
};

/// The module in `in`. Errors found once the whole module is read (a
/// port list that differs from the declarations, an assign onto an
/// input, a duplicate input, a cycle, an undriven output) name its end.
Netlist parseVerilog(util::TextReader& in) {
  expect(in, "module");
  const std::string module_name(in.token(kPunct, "module name"));
  expect(in, "(");
  // Port list: names only; direction comes from the declarations.
  std::set<std::string> ports;
  for (std::string_view port;
       (port = in.token(kPunct, "port or ')'")) != ")";) {
    if (port != "," && !ports.emplace(port).second) {
      in.fail("port '" + std::string(port) + "' listed twice");
    }
  }
  expect(in, ";");

  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::vector<Instance> instances;
  std::vector<std::pair<std::string, std::string>> assigns;  // lhs = rhs

  for (std::string_view tok;
       (tok = in.token(kPunct, "declaration, instance or endmodule")) !=
       "endmodule";) {
    if (tok == "input" || tok == "output" || tok == "wire") {
      const bool is_input = tok == "input";
      const bool is_output = tok == "output";
      while (true) {
        const std::string_view name = in.token(kPunct, "identifier");
        if (name.starts_with('[')) {
          in.fail("vector declarations unsupported");
        }
        if (is_input) input_names.emplace_back(name);
        if (is_output) output_names.emplace_back(name);
        const std::string_view sep = in.token(kPunct, "',' or ';'");
        if (sep == ";") break;
        if (sep != ",") {
          in.fail("bad declaration separator '" + std::string(sep) + "'");
        }
      }
      continue;
    }
    if (tok == "assign") {
      std::string lhs(in.token(kPunct, "assign lhs"));
      expect(in, "=");
      std::string rhs(in.token(kPunct, "assign rhs"));
      expect(in, ";");
      assigns.emplace_back(std::move(lhs), std::move(rhs));
      continue;
    }
    // Otherwise: a cell instance.
    CellKind kind;
    if (!cellFromName(tok, kind)) {
      in.fail("unsupported construct or unknown cell '" + std::string(tok) +
              "'");
    }
    Instance instance;
    instance.kind = kind;
    instance.name = in.token(kPunct, "instance name");
    expect(in, "(");
    std::map<std::string, std::string> pins;
    for (std::string_view p; (p = in.token(kPunct, "'.' or ')'")) != ")";) {
      if (p == ",") continue;
      if (p != ".") {
        in.fail("expected named connection, got '" + std::string(p) + "'");
      }
      const std::string_view pin = in.token(kPunct, "pin name");
      expect(in, "(");
      const std::string_view net = in.token(kPunct, "net name");
      expect(in, ")");
      if (!pins.emplace(pin, net).second) {
        in.fail("duplicate pin ." + std::string(pin) + " on " + instance.name);
      }
    }
    expect(in, ";");
    const auto y = pins.find("Y");
    if (y == pins.end()) {
      in.fail("instance " + instance.name + " has no .Y output");
    }
    instance.y = y->second;
    const int arity = cellFanin(kind);
    for (int i = 0; i < arity; ++i) {
      const auto pin = pins.find(kPinNames[i]);
      if (pin == pins.end()) {
        in.fail("instance " + instance.name + " missing pin ." +
                kPinNames[i]);
      }
      instance.ins.push_back(pin->second);
    }
    instances.push_back(std::move(instance));
  }
  in.expectEnd("endmodule");

  // No assign drives an input, and the ports are exactly the inputs
  // and outputs.
  std::set<std::string> declared(input_names.begin(), input_names.end());
  for (const auto& [lhs, rhs] : assigns) {
    if (declared.count(lhs)) in.fail("assign onto input '" + lhs + "'");
  }
  declared.insert(output_names.begin(), output_names.end());
  if (declared != ports) {
    in.fail("port list is not the declared inputs and outputs");
  }

  // Build the netlist: inputs first, then instances in topological
  // order (Kahn over net definitions), consts on demand.
  Netlist nl(module_name);
  std::map<std::string, NetId> net_of;
  for (const std::string& name : input_names) {
    if (net_of.count(name)) {
      in.fail("duplicate input '" + name + "'");
    }
    net_of[name] = nl.addInput(name);
  }
  // Alias assigns that define const wires (assign w = 1'b0;). Other
  // assigns (output aliases) are resolved after instances.
  std::vector<std::pair<std::string, std::string>> alias_assigns;
  for (const auto& [lhs, rhs] : assigns) {
    if (rhs == "1'b0") {
      net_of[lhs] = nl.addConst(false);
    } else if (rhs == "1'b1") {
      net_of[lhs] = nl.addConst(true);
    } else {
      alias_assigns.emplace_back(lhs, rhs);
    }
  }
  auto resolveOperand = [&](const std::string& name) -> NetId {
    if (name == "1'b0") return nl.addConst(false);
    if (name == "1'b1") return nl.addConst(true);
    const auto it = net_of.find(name);
    return it == net_of.end() ? kNoNet : it->second;
  };

  std::vector<bool> placed(instances.size(), false);
  std::size_t remaining = instances.size();
  while (remaining > 0) {
    bool progress = false;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (placed[i]) continue;
      const Instance& instance = instances[i];
      std::vector<NetId> ins;
      bool ready = true;
      for (const std::string& name : instance.ins) {
        const NetId net = resolveOperand(name);
        if (net == kNoNet) {
          ready = false;
          break;
        }
        ins.push_back(net);
      }
      if (!ready) continue;
      if (net_of.count(instance.y)) {
        in.fail("net '" + instance.y + "' multiply driven");
      }
      net_of[instance.y] = nl.addGate(instance.kind, ins, instance.y);
      placed[i] = true;
      --remaining;
      progress = true;
    }
    if (!progress) {
      in.fail("combinational cycle or undriven net in instance graph");
    }
  }

  // Output aliases, in output-declaration order.
  std::map<std::string, std::string> alias_of(alias_assigns.begin(),
                                              alias_assigns.end());
  for (const std::string& out : output_names) {
    const auto alias = alias_of.find(out);
    std::string source = out;
    if (alias != alias_of.end()) source = alias->second;
    const NetId net = resolveOperand(source);
    if (net == kNoNet) {
      in.fail("output '" + out + "' is never driven");
    }
    nl.markOutput(net, out);
  }
  return nl;
}

}  // namespace

Netlist parseVerilogString(std::string_view text) {
  util::TextReader in(text);
  try {
    return parseVerilog(in);
  } catch (const util::StatusError& error) {
    throw util::StatusError(util::Status::parseError(
        "Verilog parse error: " + error.status().message));
  }
}

Netlist parseVerilogFile(const std::string& path) {
  return parseVerilogString(util::readFile(path, "parseVerilogFile"));
}

}  // namespace tevot::netlist
