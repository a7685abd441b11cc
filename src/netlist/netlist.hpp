// Gate-level netlist representation.
//
// A Netlist is a DAG of primitive gates connected by single-driver
// nets. Construction is strictly feed-forward: a gate may only consume
// nets that already exist, so gate creation order is a valid
// topological order — the simulator and STA exploit this.
//
// Indices (NetId / GateId) are used instead of pointers throughout so
// the hot simulation loops work on dense arrays.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "netlist/cell.hpp"

namespace tevot::netlist {

using NetId = std::uint32_t;
using GateId = std::uint32_t;

inline constexpr NetId kNoNet = 0xffffffffu;
inline constexpr GateId kNoGate = 0xffffffffu;

/// One primitive gate instance. Inputs beyond `fanin` are kNoNet.
struct Gate {
  CellKind kind = CellKind::kBuf;
  std::uint8_t fanin = 0;
  NetId in[3] = {kNoNet, kNoNet, kNoNet};
  NetId out = kNoNet;
};

/// One net. Primary inputs have driver == kNoGate.
struct Net {
  GateId driver = kNoGate;
  std::string name;  ///< optional; auto-named when empty in exports
};

class Netlist {
 public:
  explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

  // Copies/moves transfer the circuit but not the fanout cache lock;
  // the destination starts with a dirty cache and its own mutex.
  Netlist(const Netlist& other);
  Netlist& operator=(const Netlist& other);
  Netlist(Netlist&& other) noexcept;
  Netlist& operator=(Netlist&& other) noexcept;
  ~Netlist() = default;

  const std::string& name() const { return name_; }

  // -- construction -------------------------------------------------

  /// Creates a primary-input net.
  NetId addInput(std::string name);

  /// Returns a (cached) constant net of the given value.
  NetId addConst(bool value);

  /// Creates a gate driving a fresh net; `ins` must all be existing
  /// nets. Throws std::invalid_argument on arity mismatch or a
  /// forward reference.
  NetId addGate(CellKind kind, std::span<const NetId> ins,
                std::string name = {});

  // Arity-specific conveniences used heavily by the generators.
  NetId addGate1(CellKind kind, NetId a, std::string name = {});
  NetId addGate2(CellKind kind, NetId a, NetId b, std::string name = {});
  NetId addGate3(CellKind kind, NetId a, NetId b, NetId c,
                 std::string name = {});

  /// Registers a net as a primary output (order is significant: output
  /// word bit i is the i-th marked output).
  void markOutput(NetId net, std::string name = {});

  // -- inspection ---------------------------------------------------

  std::size_t netCount() const { return nets_.size(); }
  std::size_t gateCount() const { return gates_.size(); }
  const Gate& gate(GateId id) const { return gates_[id]; }
  const Net& net(NetId id) const { return nets_[id]; }

  std::span<const NetId> inputs() const { return inputs_; }
  std::span<const NetId> outputs() const { return outputs_; }
  std::span<const Gate> gates() const { return gates_; }

  /// Gates consuming a net (indices into gates()). Thread-safe for
  /// concurrent readers of a fully constructed netlist: the lazy CSR
  /// rebuild is guarded, so racing first calls from pool workers each
  /// see a complete index. (Construction itself is single-threaded.)
  std::span<const GateId> fanout(NetId net) const;

  /// Effective display name of a net ("n123" when unnamed).
  std::string netDisplayName(NetId net) const;

  /// Logic level of each gate (all-primary-input gates are level 1);
  /// index by GateId. Levels are consistent with gate order.
  std::vector<int> gateLevels() const;

  /// Depth of the circuit in logic levels.
  int depth() const;

  /// Per-kind gate census, indexed by CellKind.
  std::vector<std::size_t> kindCounts() const;

  /// Structural checks: single drivers, in-bounds ids, feed-forward
  /// order, arities. Throws std::logic_error with a description when a
  /// check fails; cheap enough to run in tests on every generator.
  void validate() const;

  // -- evaluation ---------------------------------------------------

  /// Zero-delay functional evaluation. `input_values[i]` corresponds
  /// to inputs()[i]; returns the value of every net. This is the
  /// functional reference the timing simulator is checked against.
  std::vector<std::uint8_t> evalFunctional(
      std::span<const std::uint8_t> input_values) const;

  /// Convenience: evaluates and packs the primary outputs (LSB first).
  std::uint64_t evalOutputsWord(std::span<const std::uint8_t> input_values)
      const;

  /// Graphviz DOT export for debugging small circuits.
  std::string toDot() const;

 private:
  NetId newNet(std::string name);

  std::string name_;
  std::vector<Net> nets_;
  std::vector<Gate> gates_;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  // CSR-style fanout storage, rebuilt lazily. The dirty flag is an
  // acquire/release atomic and the rebuild runs under the mutex, so
  // concurrent first calls to fanout() from pool workers are safe;
  // mutation (addGate etc.) remains single-threaded by contract.
  mutable std::vector<std::uint32_t> fanout_offsets_;
  mutable std::vector<GateId> fanout_gates_;
  mutable std::atomic<bool> fanout_dirty_{true};
  mutable std::mutex fanout_mutex_;
  NetId const0_ = kNoNet;
  NetId const1_ = kNoNet;

  void rebuildFanout() const;
};

}  // namespace tevot::netlist
