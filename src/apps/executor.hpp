// Instrumented functional-unit execution.
//
// Substitutes for the paper's customized Multi2Sim: applications are
// written against FuExecutor, so every arithmetic operation flows
// through a hook that can (a) record the operand stream per FU —
// profiling the application datasets — and (b) inject timing errors
// back into the running application according to any error oracle
// (simulation ground truth or a predictive model), including the
// feedback effects of corrupted intermediate values on later
// operations.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "circuits/fu.hpp"
#include "dta/workload.hpp"
#include "liberty/corner.hpp"
#include "sim/timing_sim.hpp"
#include "tevot/baselines.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace tevot::apps {

/// Executes one FU operation; operands/results are raw 32-bit words
/// (two's-complement integers or IEEE-754 floats per the FU kind).
class FuExecutor {
 public:
  virtual ~FuExecutor() = default;
  virtual std::uint32_t execute(circuits::FuKind kind, std::uint32_t a,
                                std::uint32_t b) = 0;

  // Typed conveniences used by the filter kernels.
  std::int32_t addI(std::int32_t a, std::int32_t b);
  std::int32_t mulI(std::int32_t a, std::int32_t b);
  float addF(float a, float b);
  float mulF(float a, float b);
};

/// Error-free execution via the software golden models.
class ExactExecutor final : public FuExecutor {
 public:
  std::uint32_t execute(circuits::FuKind kind, std::uint32_t a,
                        std::uint32_t b) override {
    return circuits::fuReference(kind, a, b);
  }
};

/// Records the operand stream of every FU while delegating execution;
/// profiled streams become dta::Workload datasets (the paper's
/// sobel_data / gauss_data).
class ProfilingExecutor final : public FuExecutor {
 public:
  explicit ProfilingExecutor(FuExecutor& inner) : inner_(&inner) {}

  std::uint32_t execute(circuits::FuKind kind, std::uint32_t a,
                        std::uint32_t b) override;

  /// Profiled stream for one FU (empty workload if never used).
  dta::Workload workload(circuits::FuKind kind,
                         std::string name = "profiled") const;
  std::size_t opCount(circuits::FuKind kind) const;

 private:
  FuExecutor* inner_;
  std::map<circuits::FuKind, std::vector<dta::OperandPair>> streams_;
};

/// Decides, per operation, whether a timing error occurs and what the
/// corrupted result is.
class ErrorOracle {
 public:
  struct Outcome {
    bool error = false;
    bool has_value = false;      ///< oracle supplies the corrupted word
    std::uint32_t value = 0;
  };
  virtual ~ErrorOracle() = default;
  /// Operations arrive in program order; oracles may keep state.
  virtual Outcome judge(std::uint32_t a, std::uint32_t b,
                        std::uint32_t prev_a, std::uint32_t prev_b) = 0;
};

/// Oracle backed by a predictive error model (TEVoT or a baseline):
/// when the model predicts an error the FU returns a random value, as
/// in the paper's injection methodology.
class ModelOracle final : public ErrorOracle {
 public:
  ModelOracle(core::ErrorModel& model, liberty::Corner corner,
              double tclk_ps);
  Outcome judge(std::uint32_t a, std::uint32_t b, std::uint32_t prev_a,
                std::uint32_t prev_b) override;

 private:
  core::ErrorModel* model_;
  liberty::Corner corner_;
  double tclk_ps_;
};

/// Ground-truth oracle: steps the back-annotated gate-level simulator
/// op by op; an error occurs when the word latched at tclk differs
/// from the settled word. The corrupted result is either the actually
/// latched (stale) word — the physical hardware behaviour — or a
/// random value, matching the paper's injection methodology so model
/// and ground-truth images are corrupted the same way.
class SimOracle final : public ErrorOracle {
 public:
  enum class ValueMode { kLatchedWord, kRandomValue };

  /// Copies the delays; `nl` must outlive the oracle.
  SimOracle(const netlist::Netlist& nl, const liberty::CornerDelays& delays,
            double tclk_ps, ValueMode mode = ValueMode::kLatchedWord);
  Outcome judge(std::uint32_t a, std::uint32_t b, std::uint32_t prev_a,
                std::uint32_t prev_b) override;

 private:
  sim::TimingSimulator simulator_;
  double tclk_ps_;
  ValueMode mode_;
  bool primed_ = false;
  std::vector<std::uint8_t> input_bits_;
};

/// Wraps an exact executor and corrupts results of the FUs that have
/// an oracle installed.
class ErrorInjectingExecutor final : public FuExecutor {
 public:
  ErrorInjectingExecutor() : rng_(0xdead) {}
  explicit ErrorInjectingExecutor(std::uint64_t seed) : rng_(seed) {}

  /// Installs an oracle for one FU kind (ownership transferred).
  void setOracle(circuits::FuKind kind, std::unique_ptr<ErrorOracle> oracle);

  std::uint32_t execute(circuits::FuKind kind, std::uint32_t a,
                        std::uint32_t b) override;

  std::size_t injectedErrors() const { return injected_; }
  std::size_t totalOps() const { return total_ops_; }

 private:
  /// FU-appropriate random replacement value (random word for the
  /// integer units, random application-range float for the FP units).
  std::uint32_t randomValueFor(circuits::FuKind kind);

  struct PerFu {
    std::unique_ptr<ErrorOracle> oracle;
    std::uint32_t prev_a = 0;
    std::uint32_t prev_b = 0;
    bool has_prev = false;
  };
  std::map<circuits::FuKind, PerFu> fus_;
  util::Rng rng_;
  std::size_t injected_ = 0;
  std::size_t total_ops_ = 0;
};

}  // namespace tevot::apps
