// Ablation studies for the design choices called out in DESIGN.md:
//
//  A1  Delay regression vs. direct per-clock error classification —
//      the paper's central flexibility argument (Sec. III): one delay
//      model serves all clock speeds; a direct classifier must be
//      retrained per clock but may edge it out at its single clock.
//  A2  History features — accuracy and delay-regression R^2 with and
//      without x[t-1] (model-level view of the TEVoT-NH gap).
//  A3  Forest size — accuracy vs. number of trees (the paper uses the
//      sklearn default of 10).
//  A4  Adder architecture — ripple-carry vs. Kogge-Stone dynamic-
//      delay distributions: the long-tailed ripple spectrum is what
//      makes "critical path rarely sensitized" true for INT ADD.
//  A5  ITD model — with the temperature-dependent threshold voltage
//      removed, the Fig. 3 temperature crossover disappears.
//  A6  Feature importance — the forest's impurity-decrease ranking,
//      backing the paper's RF-interpretability argument: operating-
//      condition features and high-significance operand/toggle bits
//      dominate.
//  A7  Split size — node count, out-of-bag and held-out accuracy and
//      delay MAE at every step of TevotModel's min_samples_split
//      ladder (INT ADD, FP ADD, INT MUL), with the step train() keeps.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "circuits/int_add.hpp"
#include "circuits/int_mul.hpp"
#include "ml/metrics.hpp"

namespace {

using namespace tevot;
using namespace tevot::bench;

void ablationRegressionVsClassification(const BenchScale& scale) {
  std::printf("A1: delay regression vs direct classification (INT MUL)\n");
  const circuits::FuKind kind = circuits::FuKind::kIntMul;
  util::Rng rng(0xab1a);
  core::FuContext context(kind);
  std::vector<dta::DtaTrace> train, test;
  for (const liberty::Corner& corner : scale.corners) {
    train.push_back(context.characterize(
        corner,
        dta::randomWorkloadFor(kind, scale.train_cycles_per_corner, rng)));
    test.push_back(context.characterize(
        corner,
        dta::randomWorkloadFor(kind, scale.test_cycles_per_corner, rng)));
  }

  // One delay model, evaluated at all three clocks.
  core::TevotModel delay_model;
  delay_model.train(train, rng);
  core::TevotErrorModel delay_view(delay_model);

  const core::FeatureEncoder encoder(true);
  for (const double speedup : dta::kClockSpeedups) {
    // Direct classifier, retrained for this clock.
    auto clock_for = [&](const std::vector<dta::DtaTrace>& traces,
                         const dta::DtaTrace& trace) {
      for (std::size_t i = 0; i < traces.size(); ++i) {
        if (&traces[i] == &trace) {
          return dta::speedupClockPs(train[i].baseClockPs(), speedup);
        }
      }
      return 0.0;
    };
    const ml::Dataset train_cls = core::buildErrorDataset(
        train, encoder,
        [&](const dta::DtaTrace& t) { return clock_for(train, t); });
    ml::RandomForestClassifier classifier;
    util::Rng cls_rng(3);
    classifier.fit(train_cls, ml::ForestParams{}, cls_rng);

    // Score both on the test traces.
    std::size_t reg_ok = 0, cls_ok = 0, total = 0;
    std::vector<float> row(encoder.featureCount());
    for (std::size_t c = 0; c < test.size(); ++c) {
      const double tclk =
          dta::speedupClockPs(train[c].baseClockPs(), speedup);
      for (const dta::DtaSample& sample : test[c].samples) {
        const bool truth = sample.timingError(tclk);
        const bool reg = delay_model.predictError(
            sample.a, sample.b, sample.prev_a, sample.prev_b,
            test[c].corner, tclk);
        encoder.encodeSample(sample, test[c].corner, row);
        const bool cls = classifier.predict(row) != 0.0f;
        reg_ok += reg == truth;
        cls_ok += cls == truth;
        ++total;
      }
    }
    std::printf(
        "  speedup %2.0f%%: one delay model %s vs per-clock classifier "
        "%s\n",
        speedup * 100.0,
        formatPercent(static_cast<double>(reg_ok) / total, 8).c_str(),
        formatPercent(static_cast<double>(cls_ok) / total, 8).c_str());
  }
  std::printf("  (the delay model was trained ONCE; each classifier "
              "column required a retrain)\n\n");
}

void ablationHistoryAndForestSize(const BenchScale& scale) {
  // FP MUL on the sobel application stream: history matters most on
  // correlated workloads whose statistics deviate from the random
  // training bulk (on purely random data both variants match — see
  // Table III's random_data column).
  const circuits::FuKind kind = circuits::FuKind::kFpMul;
  util::Rng rng(0xab1b);
  core::FuContext context(kind);
  const auto datasets = buildDatasets(kind, scale, rng);
  std::vector<dta::DtaTrace> train, test;
  std::vector<double> base_clocks;  // aligned with `test`
  for (const liberty::Corner& corner : scale.corners) {
    for (const DatasetStreams& dataset : datasets) {
      train.push_back(context.characterize(corner, dataset.train));
      if (dataset.name == "sobel_data") {
        test.push_back(context.characterize(corner, dataset.test));
        base_clocks.push_back(train.back().baseClockPs());
      }
    }
  }
  auto scoreModel = [&](const core::TevotModel& model, double& r2_out) {
    std::vector<float> predicted, truth;
    std::size_t matched = 0, total = 0;
    for (std::size_t c = 0; c < test.size(); ++c) {
      const double base = base_clocks[c];
      for (const dta::DtaSample& sample : test[c].samples) {
        predicted.push_back(static_cast<float>(
            model.predictDelay(sample.a, sample.b, sample.prev_a,
                               sample.prev_b, test[c].corner)));
        truth.push_back(static_cast<float>(sample.delay_ps));
        for (const double speedup : dta::kClockSpeedups) {
          const double tclk = dta::speedupClockPs(base, speedup);
          matched += (predicted.back() > tclk) == sample.timingError(tclk);
          ++total;
        }
      }
    }
    r2_out = ml::r2Score(predicted, truth);
    return static_cast<double>(matched) / static_cast<double>(total);
  };

  std::printf("A2: history features (FP MUL, sobel data)\n");
  for (const bool history : {true, false}) {
    core::TevotConfig config;
    config.include_history = history;
    core::TevotModel model(config);
    util::Rng train_rng(5);
    model.train(train, train_rng);
    double r2 = 0.0;
    const double accuracy = scoreModel(model, r2);
    std::printf("  %-12s accuracy %s  delay R^2 %6.3f\n",
                history ? "with x[t-1]" : "no history",
                formatPercent(accuracy, 8).c_str(), r2);
  }
  std::printf("\nA3: forest size (FP MUL, sobel data)\n");
  for (const int trees : {1, 5, 10, 20, 40}) {
    core::TevotConfig config;
    config.forest.n_trees = trees;
    core::TevotModel model(config);
    util::Rng train_rng(6);
    model.train(train, train_rng);
    double r2 = 0.0;
    const double accuracy = scoreModel(model, r2);
    std::printf("  %2d trees: accuracy %s  delay R^2 %6.3f\n", trees,
                formatPercent(accuracy, 8).c_str(), r2);
  }
  std::printf("\n");
}

void ablationAdderArchitecture(const BenchScale& scale) {
  std::printf("A4: datapath architecture delay spectra (0.90 V, 50 C)\n");
  const liberty::Corner corner{0.90, 50.0};
  const auto library = liberty::CellLibrary::defaultLibrary();
  const liberty::VtModel vt;
  auto report = [&](const char* label, const netlist::Netlist& nl) {
    const auto delays = liberty::annotateCorner(nl, library, vt, corner);
    util::Rng rng(0xab1c);
    const auto workload = dta::randomWorkloadFor(
        circuits::FuKind::kIntAdd, scale.train_cycles_per_corner, rng);
    const auto trace = dta::characterize(nl, delays, workload);
    const auto stats = trace.delayStats();
    std::printf(
        "  %-12s gates %5zu  mean %7.1f ps  max %7.1f ps  mean/max "
        "%.2f  TER@15%%-speedup %s\n",
        label, nl.gateCount(), stats.mean(), stats.max(),
        stats.mean() / stats.max(),
        formatPercent(trace.timingErrorRate(
                          dta::speedupClockPs(stats.max(), 0.15)),
                      8)
            .c_str());
  };
  report("ripple",
         circuits::buildIntAdd(32, circuits::AdderArch::kRipple));
  report("carry-select",
         circuits::buildIntAdd(32, circuits::AdderArch::kCarrySelect));
  report("kogge-stone",
         circuits::buildIntAdd(32, circuits::AdderArch::kKoggeStone));
  report("mul array",
         circuits::buildIntMul(32, circuits::MulArch::kCarrySaveArray));
  report("mul booth",
         circuits::buildIntMul(32, circuits::MulArch::kBooth));
  std::printf("  (ripple: long thin tail -> critical path rarely "
              "sensitized, as the paper assumes)\n\n");
}

void ablationItdModel() {
  std::printf("A5: inverse temperature dependence ablation\n");
  liberty::VtParams with_itd;       // default: dVth/dT < 0
  liberty::VtParams without_itd = with_itd;
  without_itd.dvth_dt = 0.0;        // threshold no longer tracks T
  for (const auto& [label, params] :
       {std::pair{"with ITD", with_itd}, {"no dVth/dT", without_itd}}) {
    const liberty::VtModel model(params);
    const double low_cold = model.scale(0.81, 0.0);
    const double low_hot = model.scale(0.81, 100.0);
    const double high_cold = model.scale(1.00, 0.0);
    const double high_hot = model.scale(1.00, 100.0);
    std::printf(
        "  %-10s 0.81V: 0C %.3f -> 100C %.3f (%s)   1.00V: 0C %.3f -> "
        "100C %.3f (slower)\n",
        label, low_cold, low_hot,
        low_hot < low_cold ? "FASTER: crossover exists" : "slower: no ITD",
        high_cold, high_hot);
  }
}

}  // namespace

void ablationFeatureImportance(const BenchScale& scale) {
  std::printf("\nA6: TEVoT feature importance (INT ADD, random data)\n");
  const circuits::FuKind kind = circuits::FuKind::kIntAdd;
  util::Rng rng(0xab1d);
  core::FuContext context(kind);
  std::vector<dta::DtaTrace> traces;
  for (const liberty::Corner& corner : scale.corners) {
    traces.push_back(context.characterize(
        corner,
        dta::randomWorkloadFor(kind, scale.train_cycles_per_corner, rng)));
  }
  core::TevotModel model;
  model.train(traces, rng);
  const std::vector<double> importance = model.featureImportance();
  std::vector<std::size_t> order(importance.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return importance[a] > importance[b];
  });
  std::printf("  top 10 of %zu features by impurity decrease:\n",
              importance.size());
  for (int rank = 0; rank < 10; ++rank) {
    const std::size_t f = order[static_cast<std::size_t>(rank)];
    std::printf("    %2d. %-10s %6.2f%%\n", rank + 1,
                model.encoder().featureName(f).c_str(),
                100.0 * importance[f]);
  }
  double condition_share = 0.0;
  condition_share += importance[importance.size() - 1];
  condition_share += importance[importance.size() - 2];
  std::printf("  operating-condition (V,T) share: %.1f%%\n",
              100.0 * condition_share);
}

void ablationSplitSize(const BenchScale& scale) {
  util::ThreadPool pool(scale.jobs);
  std::printf("\nA7: split-size ladder (random data; accuracy over the "
              "three speedups)\n");
  std::printf("  %-7s %5s %8s %9s %9s %9s %9s\n", "fu", "split", "nodes",
              "oob acc", "test acc", "oob MAE", "test MAE");
  for (const circuits::FuKind kind :
       {circuits::FuKind::kIntAdd, circuits::FuKind::kFpAdd,
        circuits::FuKind::kIntMul}) {
    core::FuContext context(kind);
    util::Rng rng(0xab1e);
    std::vector<dta::Workload> workloads;
    for (std::size_t c = 0; c < 2 * scale.corners.size(); ++c) {
      workloads.push_back(dta::randomWorkloadFor(
          kind, c % 2 == 0 ? scale.train_cycles_per_corner
                           : scale.test_cycles_per_corner,
          rng));
    }
    std::vector<dta::CharacterizeJob> jobs;
    for (std::size_t c = 0; c < workloads.size(); ++c) {
      jobs.push_back(
          context.characterizeJob(scale.corners[c / 2], workloads[c]));
    }
    std::vector<dta::DtaTrace> traces = dta::characterizeAll(jobs, pool);
    std::vector<dta::DtaTrace> train, test;  // one of each per corner
    for (std::size_t c = 0; c < traces.size(); ++c) {
      (c % 2 == 0 ? train : test).push_back(std::move(traces[c]));
    }

    // The step train() keeps, and every step's out-of-bag score.
    core::TevotModel model;
    util::Rng model_rng(7);
    model.train(train, model_rng, &pool);
    const ml::Dataset data = core::buildDelayDataset(train, model.encoder());
    const core::OutOfBagScorer scorer(train);
    std::vector<core::OutOfBagScorer::Score> oob;
    ml::RandomForestRegressor ladder_forest;
    util::Rng ladder_rng(7);
    ladder_forest.fitLadder(
        data, ml::ForestParams{}, core::kSplitLadder,
        [&](std::span<const float> coarse, std::span<const float> fine) {
          if (oob.empty()) oob.push_back(scorer.score(coarse));
          oob.push_back(scorer.score(fine));
          return true;
        },
        ladder_rng, &pool);

    std::vector<float> row(model.encoder().featureCount());
    for (std::size_t step = 0; step < oob.size(); ++step) {
      // The same trees as the ladder's step: a one-shot fit at its size.
      const int split = core::kSplitLadder[step];
      ml::ForestParams params;
      params.tree.min_samples_split = split;
      ml::RandomForestRegressor forest;
      util::Rng fit_rng(7);
      forest.fit(data, params, fit_rng, &pool);
      std::size_t nodes = 0;
      for (const ml::DecisionTree& tree : forest.trees()) {
        nodes += tree.nodeCount();
      }
      std::size_t matched = 0, total = 0;
      double abs_error = 0.0;
      for (std::size_t c = 0; c < test.size(); ++c) {
        for (const dta::DtaSample& sample : test[c].samples) {
          model.encoder().encodeSample(sample, test[c].corner, row);
          const double delay = forest.predict(row);
          abs_error += std::fabs(delay - sample.delay_ps);
          for (const double speedup : dta::kClockSpeedups) {
            const double tclk =
                dta::speedupClockPs(train[c].baseClockPs(), speedup);
            matched += (delay > tclk) == sample.timingError(tclk);
            ++total;
          }
        }
      }
      double oob_error = 0.0;
      for (const double rate : oob[step].error_rate) oob_error += rate;
      oob_error /= static_cast<double>(oob[step].error_rate.size());
      std::printf("  %-7s %5d %8zu %s %s %9.2f %9.2f%s\n",
                  std::string(circuits::fuName(kind)).c_str(), split, nodes,
                  formatPercent(1.0 - oob_error, 9).c_str(),
                  formatPercent(static_cast<double>(matched) / total, 9)
                      .c_str(),
                  oob[step].mae,
                  abs_error / static_cast<double>(total / 3),
                  split == model.splitSize() ? "  <- ladder pick" : "");
    }
  }
}

int main() {
  const BenchScale scale = BenchScale::fromEnvironment();
  std::printf("=== Ablation benches (DESIGN.md Sec. 5) ===\n\n");
  ablationRegressionVsClassification(scale);
  ablationHistoryAndForestSize(scale);
  ablationAdderArchitecture(scale);
  ablationItdModel();
  ablationFeatureImportance(scale);
  ablationSplitSize(scale);
  return 0;
}
