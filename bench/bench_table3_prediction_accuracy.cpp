// Reproduces paper Table III: average timing-error prediction
// accuracy of TEVoT vs. the Delay-based, TER-based and TEVoT-NH
// baselines, per FU and dataset, averaged across operating conditions
// and the three clock speedups.
//
// Expected shape (paper): TEVoT >= 95% everywhere; Delay-based equals
// the (often tiny) ground-truth TER because it always predicts an
// error under clock speedup; TER-based and TEVoT-NH degrade sharply
// on application data whose delay statistics deviate from the
// (random-dominated) training data.
//
// Default scale: 3x3 corner grid, reduced cycle counts. TEVOT_FULL=1
// runs all 100 Table I conditions at paper-like cycle counts.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace tevot;
using namespace tevot::bench;

struct FuResult {
  std::string fu;
  // accuracies[dataset][model]
  std::vector<std::array<double, 4>> accuracies;
  std::vector<double> ground_truth_ter;
  std::vector<std::string> dataset_names;
  int tevot_split = 0;  ///< the forests' chosen min_samples_split
  int tevot_nh_split = 0;
};

FuResult runFu(circuits::FuKind kind, const BenchScale& scale,
               util::ThreadPool& pool) {
  util::Rng rng(0x7ab1e3 + static_cast<unsigned>(kind));
  core::FuContext context(kind);

  const auto datasets = buildDatasets(kind, scale, rng);
  auto traces = characterizeAll(context, datasets, scale, pool);
  const auto pooled = pooledTrainingTraces(traces);
  const core::ModelSuite suite =
      core::trainModelSuite(pooled, rng, ml::ForestParams{}, &pool);
  auto models = suite.errorModels();

  FuResult result;
  result.fu = std::string(circuits::fuName(kind));
  result.tevot_split = suite.tevot.splitSize();
  result.tevot_nh_split = suite.tevot_nh.splitSize();
  for (const auto& dataset : traces) {
    std::array<double, 4> accuracy{};
    double ter = 0.0;
    for (std::size_t m = 0; m < models.size(); ++m) {
      const core::EvalOutcome outcome =
          evaluateDataset(*models[m], dataset);
      accuracy[m] = outcome.accuracy();
      ter = outcome.groundTruthTer();
    }
    result.accuracies.push_back(accuracy);
    result.ground_truth_ter.push_back(ter);
    result.dataset_names.push_back(dataset.name);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::fromEnvironment(argc, argv);
  util::ThreadPool pool(scale.jobs);
  const auto bench_start = std::chrono::steady_clock::now();
  std::printf(
      "=== Table III: average timing-error prediction accuracy ===\n");
  std::printf(
      "conditions=%zu, clock speedups = 5%%/10%%/15%%, "
      "train=%zu random + %zu app cycles/corner, test=%zu/%zu, jobs=%zu\n\n",
      scale.corners.size(), scale.train_cycles_per_corner,
      scale.app_train_cycles, scale.test_cycles_per_corner,
      scale.app_test_cycles, pool.threadCount());

  const char* model_names[4] = {"TEVoT", "Delay-based", "TER-based",
                                "TEVoT-NH"};
  double totals[4] = {0, 0, 0, 0};
  std::size_t cells = 0;

  for (const circuits::FuKind kind : circuits::kAllFus) {
    const auto start = std::chrono::steady_clock::now();
    const FuResult result = runFu(kind, scale, pool);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::printf("%s  (%.1fs; split size: TEVoT %d, TEVoT-NH %d)\n",
                result.fu.c_str(), elapsed, result.tevot_split,
                result.tevot_nh_split);
    std::printf("  %-12s %10s %12s %10s %10s %10s\n", "dataset", "TEVoT",
                "Delay-based", "TER-based", "TEVoT-NH", "true TER");
    for (std::size_t d = 0; d < result.accuracies.size(); ++d) {
      std::printf("  %-12s %s %s %s %s %s\n",
                  result.dataset_names[d].c_str(),
                  formatPercent(result.accuracies[d][0], 10).c_str(),
                  formatPercent(result.accuracies[d][1], 12).c_str(),
                  formatPercent(result.accuracies[d][2], 10).c_str(),
                  formatPercent(result.accuracies[d][3], 10).c_str(),
                  formatPercent(result.ground_truth_ter[d], 10).c_str());
      for (int m = 0; m < 4; ++m) totals[m] += result.accuracies[d][m];
      ++cells;
    }
    std::printf("\n");
  }

  std::printf("Averages over all FUs and datasets (paper: TEVoT 98.25%%):\n");
  for (int m = 0; m < 4; ++m) {
    std::printf("  %-12s %s\n", model_names[m],
                formatPercent(totals[m] / static_cast<double>(cells),
                              10)
                    .c_str());
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();
  writeBenchJson(
      "table3_prediction_accuracy", pool.threadCount(), wall,
      {{"tevot_accuracy", totals[0] / static_cast<double>(cells)},
       {"conditions", static_cast<double>(scale.corners.size())}});
  return 0;
}
