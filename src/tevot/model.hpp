// The TEVoT model (paper Sec. III-IV).
//
// Rather than learning the timing-error function fe(V,T,tclk,I)
// directly, TEVoT learns the dynamic delay fd(V,T,I) with a random-
// forest regressor over the {V, T, x[t], x[t-1]} features; a
// predicted delay is then compared against *any* clock period, so one
// trained model classifies outputs as {timing correct, timing
// erroneous} across all clock speeds. The paper's Eq. 3 delay matrix
// corresponds to buildDelayDataset().
//
// One inference engine: every prediction (predictDelay, and
// predictDelayBatch over N queries at once) runs on the compiled
// ml::FlatForest. The CART trees it is compiled from serve training,
// and are the reference the engine must match bit for bit:
// check::checkFlatForestBitIdentity enforces that, and
// validateForServing checks it on its canaries before every swap.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <string>

#include "dta/dta.hpp"
#include "ml/flat_forest.hpp"
#include "ml/random_forest.hpp"
#include "tevot/features.hpp"
#include "util/fault_injection.hpp"
#include "util/status.hpp"

namespace tevot::core {

struct TevotConfig {
  bool include_history = true;  ///< false => the TEVoT-NH ablation
  /// Default: 10 trees, all features. train() chooses min_samples_split
  /// from kSplitLadder; forest.tree.min_samples_split is the smallest
  /// step it may take.
  ml::ForestParams forest;
};

/// The min_samples_split sizes train() grows the forest down, largest
/// first (DESIGN "Right-sized forests").
inline constexpr int kSplitLadder[] = {64, 32, 16, 8, 4, 2};
/// A finer step pays if it cuts the out-of-bag delay MAE by more than
/// this fraction of the coarser step's...
inline constexpr double kOobMaeTolerance = 0.0025;
/// ...or cuts the out-of-bag timing-error rate at any of the paper's
/// clock speedups by more than this (absolute).
inline constexpr double kOobErrorRateTolerance = 0.0005;

/// Scores a forest's out-of-bag delay predictions for train()'s
/// split-size rule. Rows follow buildDelayDataset(traces, ...); a
/// row's clocks are dta::kClockSpeedups over its own trace's base
/// clock, where it errs iff DtaSample::timingError and is predicted to
/// err iff its out-of-bag delay exceeds the clock.
class OutOfBagScorer {
 public:
  struct Score {
    double mae = 0.0;  ///< ps
    std::array<double, std::size(dta::kClockSpeedups)> error_rate{};
  };

  explicit OutOfBagScorer(std::span<const dta::DtaTrace> traces);

  /// Scores the rows with a prediction (NaN rows are skipped); all
  /// zeros when there is none.
  Score score(std::span<const float> oob) const;

  /// The rule: `fine` pays if its MAE is below (1 - kOobMaeTolerance)
  /// times `coarse`'s, or some error rate is lower by more than
  /// kOobErrorRateTolerance.
  static bool finerStepPays(const Score& coarse, const Score& fine);

 private:
  struct Row {
    double delay_ps;
    std::array<double, std::size(dta::kClockSpeedups)> tclk;
    std::array<bool, std::size(dta::kClockSpeedups)> error;
  };
  std::vector<Row> rows_;
};

/// Assembles the paper's feature matrix I / delay matrix D (Eq. 3)
/// from characterized traces: one row per cycle, features from the
/// encoder, label D[t] in ps.
ml::Dataset buildDelayDataset(std::span<const dta::DtaTrace> traces,
                              const FeatureEncoder& encoder);

/// Like buildDelayDataset but with a binary timing-error label at the
/// per-trace clock period produced by `clock_of_trace(trace)`; used
/// for the direct-classification comparison (Table II).
ml::Dataset buildErrorDataset(
    std::span<const dta::DtaTrace> traces, const FeatureEncoder& encoder,
    const std::function<double(const dta::DtaTrace&)>& clock_of_trace);

/// One batched-prediction request: the operand transition plus the
/// operating corner it happens at.
struct DelayQuery {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t prev_a = 0;
  std::uint32_t prev_b = 0;
  liberty::Corner corner;
};

class TevotModel {
 public:
  explicit TevotModel(TevotConfig config = {})
      : config_(config), encoder_(config.include_history) {}

  /// Trains the delay regressor on characterized traces (any mix of
  /// corners and workloads). The forest grows down kSplitLadder and
  /// stops at the first step whose finer successor does not pay on
  /// out-of-bag rows: a delay MAE cut beyond kOobMaeTolerance, or an
  /// error-rate cut beyond kOobErrorRateTolerance at some speedup of
  /// dta::kClockSpeedups over the row's own trace's base clock. With no
  /// out-of-bag row, no finer step pays. A pool parallelizes per-tree
  /// growth; the model is bit-identical for any thread count (the
  /// forest splits `rng` into per-tree seeds up front). Throws
  /// std::invalid_argument for a forest config without bootstrap or
  /// with max_features >= 0.
  void train(std::span<const dta::DtaTrace> traces, util::Rng& rng,
             util::ThreadPool* pool = nullptr);

  /// Predicted dynamic delay [ps] for one input transition at a
  /// corner, from the flat engine. Thread-safe: concurrent callers on
  /// one model are fine (the serving layer fans prediction out across
  /// connections). Throws util::StatusError (kInvalidArgument) on a
  /// NaN/inf corner — the flat engine's finite-features precondition
  /// is enforced here, at the boundary.
  double predictDelay(std::uint32_t a, std::uint32_t b,
                      std::uint32_t prev_a, std::uint32_t prev_b,
                      const liberty::Corner& corner) const;

  /// Batched prediction: out[i] receives the delay for queries[i],
  /// bit-identical to predictDelay on the same operands. Thread-safe like predictDelay. Throws
  /// std::invalid_argument when the spans disagree in length and
  /// util::StatusError (kInvalidArgument) on a NaN/inf query corner.
  void predictDelayBatch(std::span<const DelayQuery> queries,
                         std::span<double> out) const;

  /// Timing-error classification: erroneous iff predicted delay
  /// exceeds the clock period.
  bool predictError(std::uint32_t a, std::uint32_t b, std::uint32_t prev_a,
                    std::uint32_t prev_b, const liberty::Corner& corner,
                    double tclk_ps) const {
    return predictDelay(a, b, prev_a, prev_b, corner) > tclk_ps;
  }

  const FeatureEncoder& encoder() const { return encoder_; }
  const TevotConfig& config() const { return config_; }
  bool trained() const { return forest_.fitted(); }
  /// The min_samples_split train() chose (saved with the model); 0
  /// before training.
  int splitSize() const { return split_size_; }
  /// The CART trees: the training output and the test-side reference.
  const ml::RandomForestRegressor& forest() const { return forest_; }
  /// The compiled flat engine that answers every prediction (valid
  /// whenever trained()).
  const ml::FlatForest& flatForest() const { return flat_; }

  /// Normalized impurity-decrease importance per feature (encoder
  /// layout; see FeatureEncoder::featureName). Empty-importance
  /// (all-zero) for models loaded from disk.
  std::vector<double> featureImportance() const;

  /// Serving-readiness validation, the gate a model hot-reload must
  /// pass before the swap: trained, flat engine compiled from the
  /// forest, and finite, non-negative canary predictions at the
  /// nominal corner AND the Liberty grid extremes (0.81/1.00 V x
  /// 0/100 C) — a model that goes non-finite at low voltage must be
  /// rejected at reload, not discovered mid-serve. Each served canary
  /// answer must also equal the CART walk (forest().predict) bit for
  /// bit. ok() when the model is safe to serve. The forest's structure
  /// is not checked again here: train() builds sound trees and load()
  /// has checked every loaded one against this encoder's width.
  util::Status validateForServing() const;

  /// Pre-trained model persistence (format v2: history flag, split
  /// size, forest, end line; README "Model files"). save() writes
  /// through util::writeFileAtomic — a full disk or closed fd yields a
  /// typed util::StatusError (errno + path), never a silently
  /// truncated model. `faults` (nullable) is consulted at the io.open
  /// / io.write points, keyed by the destination path.
  void save(const std::string& path,
            util::FaultInjector* faults = nullptr) const;

  /// Loads a saved model: reads the file into one buffer and parses it
  /// with the ml/serialize.hpp reader. Rejects, with typed
  /// util::StatusError: other format versions (kParseError, naming the
  /// version), malformed or truncated payloads — any proper prefix of a
  /// saved file, since it ends with "end\n" — including
  /// non-finite numbers and cyclic, shared or unreachable tree nodes
  /// (kParseError), trailing bytes after the end line (kParseError), and
  /// forests whose feature indices exceed the header's encoder width —
  /// e.g. a model trained with history under a header claiming none
  /// (kInvalidArgument), which would otherwise read out of bounds at
  /// predict time. The forest's structure is checked once, here.
  static TevotModel load(const std::string& path);

 private:
  /// (Re)compiles flat_ from forest_; called after train/load.
  void compileFlat() { flat_ = ml::FlatForest::fromRegressor(forest_); }

  TevotConfig config_;
  FeatureEncoder encoder_;
  ml::RandomForestRegressor forest_;
  ml::FlatForest flat_;
  int split_size_ = 0;
};

}  // namespace tevot::core
