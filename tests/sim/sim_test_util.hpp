// Seeded random combinational netlists for the simulator's property
// and digest tests.
#pragma once

#include <cstdio>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace tevot::sim::testutil {

/// Random feed-forward netlist: `n_inputs` inputs, `n_gates` gates of
/// random kind whose operands are uniformly drawn from all existing
/// nets, with the last few nets marked as outputs.
inline netlist::Netlist randomNetlist(util::Rng& rng, int n_inputs,
                                      int n_gates, int n_outputs) {
  using netlist::CellKind;
  netlist::Netlist nl("fuzz");
  std::vector<netlist::NetId> nets;
  for (int i = 0; i < n_inputs; ++i) {
    // snprintf instead of "i" + std::to_string(i): GCC 12 at -O3 emits
    // a spurious -Wrestrict for the operator+ expansion.
    char buf[16];
    std::snprintf(buf, sizeof(buf), "i%d", i);
    nets.push_back(nl.addInput(buf));
  }
  // Gate kinds that take 1..3 inputs (no constants: they are exercised
  // separately and would shrink the reachable logic).
  const CellKind kinds[] = {
      CellKind::kBuf,   CellKind::kInv,   CellKind::kAnd2,
      CellKind::kOr2,   CellKind::kNand2, CellKind::kNor2,
      CellKind::kXor2,  CellKind::kXnor2, CellKind::kAnd3,
      CellKind::kOr3,   CellKind::kNand3, CellKind::kNor3,
      CellKind::kXor3,  CellKind::kMux2,  CellKind::kAoi21,
      CellKind::kOai21, CellKind::kMaj3};
  for (int g = 0; g < n_gates; ++g) {
    const CellKind kind =
        kinds[rng.nextBelow(sizeof(kinds) / sizeof(kinds[0]))];
    std::vector<netlist::NetId> ins;
    for (int i = 0; i < netlist::cellFanin(kind); ++i) {
      ins.push_back(nets[rng.nextBelow(nets.size())]);
    }
    nets.push_back(nl.addGate(kind, ins));
  }
  for (int o = 0; o < n_outputs; ++o) {
    nl.markOutput(nets[nets.size() - 1 - static_cast<std::size_t>(o)]);
  }
  return nl;
}

}  // namespace tevot::sim::testutil
