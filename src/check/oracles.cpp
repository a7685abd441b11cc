#include "check/oracles.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "check/property.hpp"
#include "dta/dta.hpp"
#include "dta/workload.hpp"
#include "ml/serialize.hpp"
#include "netlist/cell.hpp"
#include "sim/timing_sim.hpp"
#include "sta/sta.hpp"
#include "util/thread_pool.hpp"

namespace tevot::check {

using netlist::CellKind;
using netlist::NetId;
using netlist::Netlist;

namespace {

/// Slack for comparing independently accumulated double delay sums.
constexpr double kDelayEpsPs = 1e-6;

[[noreturn]] void fail(const std::ostringstream& message) {
  throw PropertyViolation(message.str());
}

}  // namespace

Netlist randomNetlist(util::Rng& rng,
                      const RandomNetlistOptions& options) {
  const int n_inputs =
      options.min_inputs +
      static_cast<int>(rng.nextBelow(
          static_cast<std::uint64_t>(options.max_inputs -
                                     options.min_inputs + 1)));
  const int n_gates =
      options.min_gates +
      static_cast<int>(rng.nextBelow(
          static_cast<std::uint64_t>(options.max_gates -
                                     options.min_gates + 1)));
  const int n_outputs =
      options.min_outputs +
      static_cast<int>(rng.nextBelow(
          static_cast<std::uint64_t>(options.max_outputs -
                                     options.min_outputs + 1)));

  Netlist nl("check_random");
  std::vector<NetId> nets;
  for (int i = 0; i < n_inputs; ++i) {
    // snprintf instead of "i" + std::to_string(i): GCC 12 at -O3 emits
    // a spurious -Wrestrict for the operator+ expansion.
    char buf[16];
    std::snprintf(buf, sizeof(buf), "i%d", i);
    nets.push_back(nl.addInput(buf));
  }
  // All 1..3-input combinational kinds (no constants: they would
  // shrink the reachable logic; the FU oracles cover constant cells).
  const CellKind kinds[] = {
      CellKind::kBuf,   CellKind::kInv,   CellKind::kAnd2,
      CellKind::kOr2,   CellKind::kNand2, CellKind::kNor2,
      CellKind::kXor2,  CellKind::kXnor2, CellKind::kAnd3,
      CellKind::kOr3,   CellKind::kNand3, CellKind::kNor3,
      CellKind::kXor3,  CellKind::kMux2,  CellKind::kAoi21,
      CellKind::kOai21, CellKind::kMaj3};
  std::vector<NetId> gate_nets;
  for (int g = 0; g < n_gates; ++g) {
    const CellKind kind =
        kinds[rng.nextBelow(sizeof(kinds) / sizeof(kinds[0]))];
    std::vector<NetId> ins;
    for (int i = 0; i < netlist::cellFanin(kind); ++i) {
      ins.push_back(nets[rng.nextBelow(nets.size())]);
    }
    const NetId out = nl.addGate(kind, ins);
    nets.push_back(out);
    gate_nets.push_back(out);
  }
  // Distinct random gate nets as outputs (partial Fisher-Yates).
  const int marked = std::min<int>(n_outputs,
                                   static_cast<int>(gate_nets.size()));
  for (int o = 0; o < marked; ++o) {
    const std::size_t pick =
        static_cast<std::size_t>(o) +
        rng.nextBelow(gate_nets.size() - static_cast<std::size_t>(o));
    std::swap(gate_nets[static_cast<std::size_t>(o)], gate_nets[pick]);
    nl.markOutput(gate_nets[static_cast<std::size_t>(o)]);
  }
  // Optionally route one primary input straight to an output — the
  // zero-delay arc whose seeding convention oracle 1 pins down.
  if (rng.nextBool(options.input_as_output_p)) {
    nl.markOutput(nl.inputs()[rng.nextBelow(nl.inputs().size())]);
  }
  return nl;
}

liberty::CornerDelays randomDelays(util::Rng& rng, const Netlist& nl,
                                   double min_ps, double max_ps) {
  liberty::CornerDelays delays;
  delays.corner = {0.9, 50.0};
  for (std::size_t g = 0; g < nl.gateCount(); ++g) {
    delays.rise_ps.push_back(rng.nextDouble(min_ps, max_ps));
    delays.fall_ps.push_back(rng.nextDouble(min_ps, max_ps));
  }
  return delays;
}

SensitizableChain sensitizableChain(util::Rng& rng, int min_length,
                                    int max_length) {
  const int length =
      min_length + static_cast<int>(rng.nextBelow(
                       static_cast<std::uint64_t>(max_length -
                                                  min_length + 1)));
  SensitizableChain chain;
  chain.nl = Netlist("check_chain");
  Netlist& nl = chain.nl;
  const NetId head = nl.addInput("head");
  NetId cur = head;
  // Every kind here passes any transition on the chain input when the
  // side inputs hold the listed non-controlling constant.
  struct Stage {
    CellKind kind;
    int side;  ///< -1: none, 0/1: constant value for the side inputs
  };
  const Stage stages[] = {
      {CellKind::kBuf, -1},  {CellKind::kInv, -1},
      {CellKind::kAnd2, 1},  {CellKind::kOr2, 0},
      {CellKind::kNand2, 1}, {CellKind::kNor2, 0},
      {CellKind::kXor2, 0},  {CellKind::kXnor2, 0},
      {CellKind::kAnd3, 1},  {CellKind::kOr3, 0}};
  for (int g = 0; g < length; ++g) {
    const Stage stage =
        stages[rng.nextBelow(sizeof(stages) / sizeof(stages[0]))];
    const int fanin = netlist::cellFanin(stage.kind);
    std::vector<NetId> ins{cur};
    for (int i = 1; i < fanin; ++i) {
      ins.push_back(nl.addConst(stage.side != 0));
    }
    cur = nl.addGate(stage.kind, ins);
  }
  nl.markOutput(cur, "tail");

  chain.delays.corner = {0.9, 50.0};
  for (std::size_t g = 0; g < nl.gateCount(); ++g) {
    const CellKind kind = nl.gate(static_cast<netlist::GateId>(g)).kind;
    const bool constant =
        kind == CellKind::kConst0 || kind == CellKind::kConst1;
    // Constants never toggle; zero delay keeps their STA arrival at 0
    // so the chain is the unique critical path. Chain gates get
    // rise == fall so the sensitized delay is transition-independent.
    const double delay = constant ? 0.0 : rng.nextDouble(1.0, 50.0);
    chain.delays.rise_ps.push_back(delay);
    chain.delays.fall_ps.push_back(delay);
  }
  return chain;
}

liberty::Corner randomCorner(util::Rng& rng) {
  constexpr double kVolts[] = {0.81, 0.90, 1.00};
  constexpr double kTemps[] = {0.0, 50.0, 100.0};
  return {kVolts[rng.nextBelow(3)], kTemps[rng.nextBelow(3)]};
}

void checkSimVsStaOnRandomNetlist(std::uint64_t seed, util::Rng& rng) {
  const Netlist nl = randomNetlist(rng);
  nl.validate();
  const liberty::CornerDelays delays = randomDelays(rng, nl);
  const sta::StaResult sta_result = sta::analyze(nl, delays);

  sim::TimingSimulator simulator(nl, delays);
  std::vector<std::uint8_t> inputs(nl.inputs().size());
  for (auto& bit : inputs) bit = rng.nextBool() ? 1 : 0;
  simulator.reset(inputs);

  const auto outputs = nl.outputs();
  for (int cycle = 0; cycle < 30; ++cycle) {
    for (auto& bit : inputs) {
      if (rng.nextBool(0.4)) bit ^= 1;
    }
    const sim::CycleRecord record = simulator.step(inputs);
    if (record.dynamic_delay_ps >
        sta_result.critical_path_ps + kDelayEpsPs) {
      std::ostringstream msg;
      msg << "sim-vs-sta seed " << seed << " cycle " << cycle
          << ": dynamic delay " << record.dynamic_delay_ps
          << " ps exceeds STA critical path "
          << sta_result.critical_path_ps << " ps";
      fail(msg);
    }
    for (const sim::ToggleEvent& toggle : record.output_toggles) {
      const double arrival =
          sta_result.arrival_ps[outputs[toggle.output_bit]];
      if (toggle.time_ps > arrival + kDelayEpsPs) {
        std::ostringstream msg;
        msg << "sim-vs-sta seed " << seed << " cycle " << cycle
            << ": output bit " << toggle.output_bit << " toggles at "
            << toggle.time_ps << " ps, after its STA arrival "
            << arrival << " ps";
        fail(msg);
      }
    }
    // Every toggle happens by the critical path, so a register bank
    // clocked just past it must capture the settled word. This is the
    // assertion that catches missing-toggle bugs (e.g. a primary
    // input marked as output whose clock-edge transition was not
    // recorded).
    const std::uint64_t latched =
        record.latchedWord(sta_result.critical_path_ps + kDelayEpsPs);
    if (latched != record.settled_word) {
      std::ostringstream msg;
      msg << "sim-vs-sta seed " << seed << " cycle " << cycle
          << ": word latched at the STA critical path (" << latched
          << ") differs from the settled word (" << record.settled_word
          << ")";
      fail(msg);
    }
    if (record.settled_word != nl.evalOutputsWord(inputs)) {
      std::ostringstream msg;
      msg << "sim-vs-sta seed " << seed << " cycle " << cycle
          << ": settled word differs from the functional evaluation";
      fail(msg);
    }
  }
}

void checkSimMeetsStaOnChain(std::uint64_t seed, util::Rng& rng) {
  const SensitizableChain chain = sensitizableChain(rng);
  chain.nl.validate();
  const sta::StaResult sta_result = sta::analyze(chain.nl, chain.delays);

  sim::TimingSimulator simulator(chain.nl, chain.delays);
  const std::uint8_t low[] = {0};
  const std::uint8_t high[] = {1};
  simulator.reset(low);
  const char* edge[] = {"rising", "falling"};
  for (int step = 0; step < 2; ++step) {
    const sim::CycleRecord record =
        simulator.step(step == 0 ? high : low);
    const double diff =
        record.dynamic_delay_ps - sta_result.critical_path_ps;
    if (diff > kDelayEpsPs || diff < -kDelayEpsPs) {
      std::ostringstream msg;
      msg << "sim-meets-sta seed " << seed << ": " << edge[step]
          << " head transition arrives at " << record.dynamic_delay_ps
          << " ps but the sensitized STA critical path is "
          << sta_result.critical_path_ps << " ps";
      fail(msg);
    }
  }
}

void checkSimVsStaOnFu(core::FuContext& context, std::uint64_t seed,
                       util::Rng& rng, int cycles) {
  const liberty::Corner corner = randomCorner(rng);
  const double critical_ps = context.staCriticalPathPs(corner);
  const dta::Workload workload = dta::randomWorkloadFor(
      context.kind(), static_cast<std::size_t>(cycles) + 1, rng);
  const dta::DtaTrace trace = context.characterize(corner, workload);
  for (std::size_t c = 0; c < trace.samples.size(); ++c) {
    const dta::DtaSample& sample = trace.samples[c];
    if (sample.delay_ps > critical_ps + kDelayEpsPs) {
      std::ostringstream msg;
      msg << "fu-sim-vs-sta seed " << seed << " "
          << circuits::fuName(context.kind()) << " @ (" << corner.voltage
          << " V, " << corner.temperature << " C) cycle " << c
          << ": dynamic delay " << sample.delay_ps
          << " ps exceeds STA critical path " << critical_ps << " ps";
      fail(msg);
    }
    // At an STA-guardbanded clock DTA must never report an error.
    if (sample.timingError(critical_ps + kDelayEpsPs)) {
      std::ostringstream msg;
      msg << "fu-sim-vs-sta seed " << seed << " "
          << circuits::fuName(context.kind()) << " cycle " << c
          << ": timing error reported at a clock slower than the STA "
             "critical path";
      fail(msg);
    }
  }
}

void checkSimVsReferenceOnFu(core::FuContext& context, std::uint64_t seed,
                             util::Rng& rng, int cycles) {
  const liberty::Corner corner = randomCorner(rng);
  const dta::Workload workload = dta::randomWorkloadFor(
      context.kind(), static_cast<std::size_t>(cycles) + 1, rng);
  const dta::DtaTrace trace = context.characterize(corner, workload);
  for (std::size_t c = 0; c < trace.samples.size(); ++c) {
    const dta::DtaSample& sample = trace.samples[c];
    const std::uint64_t expected =
        circuits::fuReference(context.kind(), sample.a, sample.b);
    if (sample.settled_word != expected) {
      std::ostringstream msg;
      msg << "fu-sim-vs-ref seed " << seed << " "
          << circuits::fuName(context.kind()) << " cycle " << c << ": "
          << sample.a << " op " << sample.b << " settled to "
          << sample.settled_word << ", reference says " << expected;
      fail(msg);
    }
    const double generous_ps = 1e9;  // far past any path delay
    if (sample.latchedWord(generous_ps) != sample.settled_word) {
      std::ostringstream msg;
      msg << "fu-sim-vs-ref seed " << seed << " "
          << circuits::fuName(context.kind()) << " cycle " << c
          << ": generous clock latches a word that differs from the "
             "settled output";
      fail(msg);
    }
  }
}

namespace {

ml::Dataset randomRegressionTask(util::Rng& rng, int rows, int cols) {
  ml::Dataset data;
  std::vector<float> row(static_cast<std::size_t>(cols));
  for (int r = 0; r < rows; ++r) {
    float sum = 0.0f;
    for (auto& value : row) {
      value = static_cast<float>(rng.nextDouble(0.0, 4.0));
      sum += value;
    }
    data.append(row, sum);
  }
  return data;
}

std::string savedBytes(const ml::RandomForestRegressor& forest) {
  std::ostringstream os;
  ml::saveForest(os, forest);
  return os.str();
}

}  // namespace

void checkModelRoundTrip(std::uint64_t seed, util::Rng& rng) {
  const ml::Dataset data = randomRegressionTask(rng, 60, 2);
  ml::ForestParams params;
  params.n_trees = 5;
  params.tree.max_depth = 6;

  // Serial vs pooled fits from the same seed must serialize to the same
  // bytes (the --jobs determinism guarantee as a property).
  const std::uint64_t fit_seed = rng.next();
  ml::RandomForestRegressor serial;
  util::Rng serial_rng(fit_seed);
  serial.fit(data, params, serial_rng);
  ml::RandomForestRegressor pooled;
  util::Rng pooled_rng(fit_seed);
  util::ThreadPool pool(3);
  pooled.fit(data, params, pooled_rng, &pool);
  const std::string first = savedBytes(serial);
  if (first != savedBytes(pooled)) {
    std::ostringstream msg;
    msg << "model-round-trip seed " << seed
        << ": serial and pooled forest fits serialize differently";
    fail(msg);
  }

  // save -> load -> save must reproduce the bytes; the reloaded forest
  // must predict bit-identically on every row.
  std::istringstream stored(first);
  const ml::RandomForestRegressor reloaded = ml::loadForestRegressor(stored);
  if (savedBytes(reloaded) != first) {
    std::ostringstream msg;
    msg << "model-round-trip seed " << seed
        << ": forest regressor re-serialization is not byte-identical";
    fail(msg);
  }
  for (std::size_t r = 0; r < data.size(); ++r) {
    if (serial.predict(data.x.row(r)) != reloaded.predict(data.x.row(r))) {
      std::ostringstream msg;
      msg << "model-round-trip seed " << seed
          << ": forest regressor reloaded prediction differs on row " << r;
      fail(msg);
    }
  }
}

}  // namespace tevot::check
