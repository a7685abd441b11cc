#include "apps/executor.hpp"

namespace tevot::apps {

std::int32_t FuExecutor::addI(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(execute(circuits::FuKind::kIntAdd,
                                           static_cast<std::uint32_t>(a),
                                           static_cast<std::uint32_t>(b)));
}

std::int32_t FuExecutor::mulI(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(execute(circuits::FuKind::kIntMul,
                                           static_cast<std::uint32_t>(a),
                                           static_cast<std::uint32_t>(b)));
}

float FuExecutor::addF(float a, float b) {
  return util::bitsToFloat(execute(circuits::FuKind::kFpAdd,
                                   util::floatToBits(a),
                                   util::floatToBits(b)));
}

float FuExecutor::mulF(float a, float b) {
  return util::bitsToFloat(execute(circuits::FuKind::kFpMul,
                                   util::floatToBits(a),
                                   util::floatToBits(b)));
}

std::uint32_t ProfilingExecutor::execute(circuits::FuKind kind,
                                         std::uint32_t a, std::uint32_t b) {
  streams_[kind].push_back(dta::OperandPair{a, b});
  return inner_->execute(kind, a, b);
}

dta::Workload ProfilingExecutor::workload(circuits::FuKind kind,
                                          std::string name) const {
  dta::Workload workload;
  workload.name = std::move(name);
  const auto it = streams_.find(kind);
  if (it != streams_.end()) workload.ops = it->second;
  return workload;
}

std::size_t ProfilingExecutor::opCount(circuits::FuKind kind) const {
  const auto it = streams_.find(kind);
  return it == streams_.end() ? 0 : it->second.size();
}

ModelOracle::ModelOracle(core::ErrorModel& model, liberty::Corner corner,
                         double tclk_ps)
    : model_(&model), corner_(corner), tclk_ps_(tclk_ps) {}

ErrorOracle::Outcome ModelOracle::judge(std::uint32_t a, std::uint32_t b,
                                        std::uint32_t prev_a,
                                        std::uint32_t prev_b) {
  core::PredictionContext context;
  context.a = a;
  context.b = b;
  context.prev_a = prev_a;
  context.prev_b = prev_b;
  context.corner = corner_;
  context.tclk_ps = tclk_ps_;
  Outcome outcome;
  outcome.error = model_->predictError(context);
  // has_value stays false: the executor draws the random replacement
  // value in an FU-appropriate way.
  return outcome;
}

SimOracle::SimOracle(const netlist::Netlist& nl,
                     const liberty::CornerDelays& delays, double tclk_ps,
                     ValueMode mode)
    : simulator_(nl, delays), tclk_ps_(tclk_ps), mode_(mode),
      input_bits_(nl.inputs().size(), 0) {}

ErrorOracle::Outcome SimOracle::judge(std::uint32_t a, std::uint32_t b,
                                      std::uint32_t prev_a,
                                      std::uint32_t prev_b) {
  if (!primed_) {
    circuits::encodeOperandsInto(prev_a, prev_b, input_bits_);
    simulator_.reset(input_bits_);
    primed_ = true;
  }
  circuits::encodeOperandsInto(a, b, input_bits_);
  const sim::CycleRecord record = simulator_.step(input_bits_);
  const std::uint64_t latched = record.latchedWord(tclk_ps_);
  Outcome outcome;
  outcome.error = latched != record.settled_word;
  if (mode_ == ValueMode::kLatchedWord) {
    outcome.has_value = true;
    outcome.value = static_cast<std::uint32_t>(latched);
  }
  // kRandomValue: has_value stays false and the executor draws the
  // replacement, so ground truth and models corrupt identically.
  return outcome;
}

void ErrorInjectingExecutor::setOracle(circuits::FuKind kind,
                                       std::unique_ptr<ErrorOracle> oracle) {
  fus_[kind].oracle = std::move(oracle);
}

std::uint32_t ErrorInjectingExecutor::execute(circuits::FuKind kind,
                                              std::uint32_t a,
                                              std::uint32_t b) {
  ++total_ops_;
  const std::uint32_t exact = circuits::fuReference(kind, a, b);
  const auto it = fus_.find(kind);
  if (it == fus_.end() || !it->second.oracle) return exact;
  PerFu& fu = it->second;
  // The first operation of a stream has no preceding state; mirror
  // the DTA convention of treating it as a repeat of itself (no
  // transition -> no error).
  const std::uint32_t prev_a = fu.has_prev ? fu.prev_a : a;
  const std::uint32_t prev_b = fu.has_prev ? fu.prev_b : b;
  const ErrorOracle::Outcome outcome =
      fu.oracle->judge(a, b, prev_a, prev_b);
  fu.prev_a = a;
  fu.prev_b = b;
  fu.has_prev = true;
  if (!outcome.error) return exact;
  ++injected_;
  if (outcome.has_value) return outcome.value;
  return randomValueFor(kind);
}

std::uint32_t ErrorInjectingExecutor::randomValueFor(circuits::FuKind kind) {
  switch (kind) {
    case circuits::FuKind::kIntAdd:
    case circuits::FuKind::kIntMul:
      // Random value of application-typical magnitude (accumulator-scale, 12-bit), for
      // the same reason as the FP case below: the modeled image
      // kernels carry accumulators of this scale, and a full-width
      // random word would saturate every downstream clamp, turning
      // each error into a maximal pixel defect.
      return static_cast<std::uint32_t>(rng_.nextBelow(4096));
    case circuits::FuKind::kFpAdd:
    case circuits::FuKind::kFpMul: {
      // A random *representable* value of application-typical
      // magnitude: a random bit pattern would be an astronomically
      // large or tiny float whose propagation through accumulator
      // feedback corrupts every downstream operation, which is not
      // what "the FU returns a random value" means for a value-level
      // injection methodology.
      const std::uint32_t exponent =
          110u + static_cast<std::uint32_t>(rng_.nextBelow(31));
      const std::uint32_t mantissa = rng_.nextU32() & 0x7fffffu;
      const std::uint32_t sign = rng_.nextBool() ? 1u : 0u;
      return (sign << 31) | (exponent << 23) | mantissa;
    }
  }
  return rng_.nextU32();
}

}  // namespace tevot::apps
