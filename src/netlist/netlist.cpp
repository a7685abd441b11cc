#include "netlist/netlist.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/bitvec.hpp"

namespace tevot::netlist {

Netlist::Netlist(const Netlist& other)
    : name_(other.name_),
      nets_(other.nets_),
      gates_(other.gates_),
      inputs_(other.inputs_),
      outputs_(other.outputs_),
      const0_(other.const0_),
      const1_(other.const1_) {}

Netlist& Netlist::operator=(const Netlist& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  nets_ = other.nets_;
  gates_ = other.gates_;
  inputs_ = other.inputs_;
  outputs_ = other.outputs_;
  const0_ = other.const0_;
  const1_ = other.const1_;
  fanout_offsets_.clear();
  fanout_gates_.clear();
  fanout_dirty_.store(true, std::memory_order_release);
  return *this;
}

Netlist::Netlist(Netlist&& other) noexcept
    : name_(std::move(other.name_)),
      nets_(std::move(other.nets_)),
      gates_(std::move(other.gates_)),
      inputs_(std::move(other.inputs_)),
      outputs_(std::move(other.outputs_)),
      const0_(other.const0_),
      const1_(other.const1_) {}

Netlist& Netlist::operator=(Netlist&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  nets_ = std::move(other.nets_);
  gates_ = std::move(other.gates_);
  inputs_ = std::move(other.inputs_);
  outputs_ = std::move(other.outputs_);
  const0_ = other.const0_;
  const1_ = other.const1_;
  fanout_offsets_.clear();
  fanout_gates_.clear();
  fanout_dirty_.store(true, std::memory_order_release);
  return *this;
}

NetId Netlist::newNet(std::string name) {
  nets_.push_back(Net{kNoGate, std::move(name)});
  fanout_dirty_.store(true, std::memory_order_release);
  return static_cast<NetId>(nets_.size() - 1);
}

NetId Netlist::addInput(std::string name) {
  const NetId id = newNet(std::move(name));
  inputs_.push_back(id);
  return id;
}

NetId Netlist::addConst(bool value) {
  NetId& cached = value ? const1_ : const0_;
  if (cached != kNoNet) return cached;
  const CellKind kind = value ? CellKind::kConst1 : CellKind::kConst0;
  cached = addGate(kind, {}, value ? "const1" : "const0");
  return cached;
}

NetId Netlist::addGate(CellKind kind, std::span<const NetId> ins,
                       std::string name) {
  const int arity = cellFanin(kind);
  if (static_cast<int>(ins.size()) != arity) {
    std::ostringstream msg;
    msg << "addGate(" << cellName(kind) << "): expected " << arity
        << " inputs, got " << ins.size();
    throw std::invalid_argument(msg.str());
  }
  for (const NetId in : ins) {
    if (in >= nets_.size()) {
      throw std::invalid_argument(
          "addGate: input net does not exist (forward reference?)");
    }
  }
  Gate gate;
  gate.kind = kind;
  gate.fanin = static_cast<std::uint8_t>(arity);
  for (int i = 0; i < arity; ++i) gate.in[i] = ins[static_cast<std::size_t>(i)];
  gate.out = newNet(std::move(name));
  nets_[gate.out].driver = static_cast<GateId>(gates_.size());
  gates_.push_back(gate);
  return gate.out;
}

NetId Netlist::addGate1(CellKind kind, NetId a, std::string name) {
  const NetId ins[1] = {a};
  return addGate(kind, ins, std::move(name));
}

NetId Netlist::addGate2(CellKind kind, NetId a, NetId b, std::string name) {
  const NetId ins[2] = {a, b};
  return addGate(kind, ins, std::move(name));
}

NetId Netlist::addGate3(CellKind kind, NetId a, NetId b, NetId c,
                        std::string name) {
  const NetId ins[3] = {a, b, c};
  return addGate(kind, ins, std::move(name));
}

void Netlist::markOutput(NetId net, std::string name) {
  if (net >= nets_.size()) {
    throw std::invalid_argument("markOutput: net does not exist");
  }
  if (!name.empty()) nets_[net].name = std::move(name);
  outputs_.push_back(net);
}

void Netlist::rebuildFanout() const {
  fanout_offsets_.assign(nets_.size() + 1, 0);
  for (const Gate& gate : gates_) {
    for (int i = 0; i < gate.fanin; ++i) ++fanout_offsets_[gate.in[i] + 1];
  }
  for (std::size_t n = 1; n < fanout_offsets_.size(); ++n) {
    fanout_offsets_[n] += fanout_offsets_[n - 1];
  }
  fanout_gates_.resize(fanout_offsets_.back());
  std::vector<std::uint32_t> cursor(fanout_offsets_.begin(),
                                    fanout_offsets_.end() - 1);
  for (GateId g = 0; g < gates_.size(); ++g) {
    const Gate& gate = gates_[g];
    for (int i = 0; i < gate.fanin; ++i) {
      fanout_gates_[cursor[gate.in[i]]++] = g;
    }
  }
}

std::span<const GateId> Netlist::fanout(NetId net) const {
  // Double-checked rebuild: the release store below pairs with the
  // acquire load here, so a reader observing the flag clear also
  // observes the fully built CSR arrays. Racing first callers
  // serialize on the mutex; the steady state is one atomic load.
  if (fanout_dirty_.load(std::memory_order_acquire)) {
    const std::scoped_lock lock(fanout_mutex_);
    if (fanout_dirty_.load(std::memory_order_relaxed)) {
      rebuildFanout();
      fanout_dirty_.store(false, std::memory_order_release);
    }
  }
  const std::uint32_t begin = fanout_offsets_[net];
  const std::uint32_t end = fanout_offsets_[net + 1];
  return {fanout_gates_.data() + begin, end - begin};
}

std::string Netlist::netDisplayName(NetId net) const {
  const Net& n = nets_.at(net);
  if (!n.name.empty()) return n.name;
  // snprintf instead of "n" + to_string(net): GCC 12's -O3 inliner
  // raises a -Wrestrict false positive on that operator+ chain, which
  // -Werror builds would reject.
  char buf[16];
  std::snprintf(buf, sizeof(buf), "n%u", net);
  return buf;
}

std::vector<int> Netlist::gateLevels() const {
  std::vector<int> net_level(nets_.size(), 0);
  std::vector<int> levels(gates_.size(), 0);
  for (GateId g = 0; g < gates_.size(); ++g) {
    const Gate& gate = gates_[g];
    int level = 0;
    for (int i = 0; i < gate.fanin; ++i) {
      level = std::max(level, net_level[gate.in[i]]);
    }
    levels[g] = level + 1;
    net_level[gate.out] = level + 1;
  }
  return levels;
}

int Netlist::depth() const {
  const std::vector<int> levels = gateLevels();
  int depth = 0;
  for (const int level : levels) depth = std::max(depth, level);
  return depth;
}

std::vector<std::size_t> Netlist::kindCounts() const {
  std::vector<std::size_t> counts(kCellKindCount, 0);
  for (const Gate& gate : gates_) {
    ++counts[static_cast<std::size_t>(gate.kind)];
  }
  return counts;
}

void Netlist::validate() const {
  std::vector<bool> driven(nets_.size(), false);
  for (const NetId in : inputs_) {
    if (in >= nets_.size()) throw std::logic_error("input net out of bounds");
    if (nets_[in].driver != kNoGate) {
      throw std::logic_error("primary input has a gate driver");
    }
    if (driven[in]) throw std::logic_error("net registered as input twice");
    driven[in] = true;
  }
  for (GateId g = 0; g < gates_.size(); ++g) {
    const Gate& gate = gates_[g];
    if (gate.fanin != cellFanin(gate.kind)) {
      throw std::logic_error("gate arity mismatch");
    }
    if (gate.out >= nets_.size()) {
      throw std::logic_error("gate output net out of bounds");
    }
    if (nets_[gate.out].driver != g) {
      throw std::logic_error("net driver back-reference broken");
    }
    if (driven[gate.out]) throw std::logic_error("multiply-driven net");
    driven[gate.out] = true;
    for (int i = 0; i < gate.fanin; ++i) {
      if (gate.in[i] >= nets_.size()) {
        throw std::logic_error("gate input net out of bounds");
      }
      // Feed-forward: inputs must be primary inputs or outputs of
      // earlier gates; this is what makes gate order topological.
      const GateId driver = nets_[gate.in[i]].driver;
      if (driver != kNoGate && driver >= g) {
        throw std::logic_error("gate consumes a later gate's output");
      }
    }
  }
  for (std::size_t n = 0; n < nets_.size(); ++n) {
    if (!driven[n]) throw std::logic_error("undriven net");
  }
  for (const NetId out : outputs_) {
    if (out >= nets_.size()) throw std::logic_error("output net out of bounds");
  }
}

std::vector<std::uint8_t> Netlist::evalFunctional(
    std::span<const std::uint8_t> input_values) const {
  if (input_values.size() != inputs_.size()) {
    throw std::invalid_argument("evalFunctional: input arity mismatch");
  }
  std::vector<std::uint8_t> values(nets_.size(), 0);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    values[inputs_[i]] = input_values[i] ? 1 : 0;
  }
  for (const Gate& gate : gates_) {
    const bool a = gate.fanin > 0 && values[gate.in[0]] != 0;
    const bool b = gate.fanin > 1 && values[gate.in[1]] != 0;
    const bool c = gate.fanin > 2 && values[gate.in[2]] != 0;
    values[gate.out] = evalCell(gate.kind, a, b, c) ? 1 : 0;
  }
  return values;
}

std::uint64_t Netlist::evalOutputsWord(
    std::span<const std::uint8_t> input_values) const {
  const std::vector<std::uint8_t> values = evalFunctional(input_values);
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < outputs_.size() && i < 64; ++i) {
    if (values[outputs_[i]]) word |= (1ULL << i);
  }
  return word;
}

std::string Netlist::toDot() const {
  std::ostringstream dot;
  dot << "digraph \"" << name_ << "\" {\n  rankdir=LR;\n";
  for (const NetId in : inputs_) {
    dot << "  \"" << netDisplayName(in)
        << "\" [shape=triangle,color=blue];\n";
  }
  for (GateId g = 0; g < gates_.size(); ++g) {
    const Gate& gate = gates_[g];
    dot << "  g" << g << " [shape=box,label=\"" << cellName(gate.kind)
        << "\"];\n";
    for (int i = 0; i < gate.fanin; ++i) {
      const Net& in = nets_[gate.in[i]];
      if (in.driver == kNoGate) {
        dot << "  \"" << netDisplayName(gate.in[i]) << "\" -> g" << g << ";\n";
      } else {
        dot << "  g" << in.driver << " -> g" << g << ";\n";
      }
    }
  }
  for (const NetId out : outputs_) {
    dot << "  \"out_" << netDisplayName(out)
        << "\" [shape=triangle,color=red];\n";
    const Net& net = nets_[out];
    if (net.driver == kNoGate) {
      dot << "  \"" << netDisplayName(out) << "\" -> \"out_"
          << netDisplayName(out) << "\";\n";
    } else {
      dot << "  g" << net.driver << " -> \"out_" << netDisplayName(out)
          << "\";\n";
    }
  }
  dot << "}\n";
  return dot.str();
}

}  // namespace tevot::netlist
