// Reproduces paper Table IV: application output-quality estimation
// accuracy of TEVoT vs. the baselines on the Sobel and Gaussian
// filters.
//
// Protocol (paper Sec. V-D): the filters run in integer mode with
// timing errors injected into INT ADD and INT MUL — the units whose
// long-tailed application delay spectra put different grid cells on
// both sides of the quality cliff (the FP units' application streams
// re-sensitize the same dominant path nearly every cycle, so their
// quality collapses at any speedup). Ground truth decides
// per-operation errors via back-annotated gate-level simulation; as
// in the paper, every erroneous FU result (ground truth and models
// alike) is replaced by a random value. Every output image is
// classified acceptable (PSNR >= 30 dB vs. the error-free output) or
// not; estimation accuracy is the fraction of (condition, clock,
// image) cells where a model's classification matches ground truth.
//
// Expected shape: TEVoT ~97%; Delay-based always estimates
// "unacceptable" (right only when the output truly degrades);
// TER-based and TEVoT-NH miss the workload dependence and misjudge
// many cells.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace tevot;
using namespace tevot::bench;

constexpr circuits::FuKind kInjectedFus[] = {circuits::FuKind::kIntAdd,
                                             circuits::FuKind::kIntMul};

struct AppExperiment {
  apps::AppKind app;
  // Per injected FU: context, trained suite, per-corner base clocks.
  struct PerFu {
    std::unique_ptr<core::FuContext> context;
    core::ModelSuite suite;
    std::vector<std::unique_ptr<core::ErrorModel>> models;
    std::map<std::pair<int, int>, double> base_clock;
  };
  std::map<circuits::FuKind, PerFu> fus;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::fromEnvironment(argc, argv);
  util::ThreadPool pool(scale.jobs);
  const auto bench_start = std::chrono::steady_clock::now();
  util::Rng rng(0x7ab1e4);

  // Image set: training slice defines base clocks & training data,
  // test slice is evaluated.
  apps::SynthImageParams image_params;
  image_params.width = scale.image_size;
  image_params.height = scale.image_size;
  const auto images =
      apps::synthImageSet(scale.image_count, 0xbf1u, image_params);
  const std::size_t train_images = std::max<std::size_t>(1, images.size() / 6);
  const std::size_t eval_images = util::fullScale() ? 2 : 1;

  std::printf("=== Table IV: application quality estimation accuracy ===\n");
  std::printf(
      "conditions=%zu x 3 clock speedups x %zu image(s), %dx%d px, "
      "PSNR threshold %.0f dB\n\n",
      scale.corners.size(), eval_images, scale.image_size,
      scale.image_size, apps::kAcceptablePsnrDb);

  const char* model_names[4] = {"TEVoT", "Delay-based", "TER-based",
                                "TEVoT-NH"};
  std::printf("  %-12s %10s %12s %10s %10s %12s\n", "Application",
              "TEVoT", "Delay-based", "TER-based", "TEVoT-NH",
              "GT unaccept.");

  double totals[4] = {0, 0, 0, 0};
  for (const apps::AppKind app : apps::kAllApps) {
    AppExperiment experiment;
    experiment.app = app;

    // Train per-FU model suites from random + app training streams.
    const std::span<const apps::Image> train_span{images.data(),
                                                  train_images};
    auto app_streams = apps::profileAppWorkloads(app, train_span);
    for (const circuits::FuKind kind : kInjectedFus) {
      AppExperiment::PerFu per_fu;
      per_fu.context = std::make_unique<core::FuContext>(kind);
      std::vector<dta::DtaTrace> train_traces;   // forest training
      std::vector<dta::DtaTrace> calib_traces;   // baselines + clocks
      const auto random_wl = dta::randomWorkloadFor(
          kind, scale.train_cycles_per_corner, rng);
      const auto app_wl =
          dta::resizeWorkload(app_streams[kind], scale.app_train_cycles);
      // The base clock ("fastest error-free clock" of the dataset at
      // each condition) and the TER/Delay baselines need the delay
      // *tail*, which a short training sample misses — an eval image
      // runs tens of thousands of FU ops. Characterize a much longer
      // slice for calibration; the forests keep the short sample.
      const auto app_long = dta::resizeWorkload(
          app_streams[kind],
          std::max<std::size_t>(8000, 8 * scale.app_train_cycles));
      // Characterize the (workload x corner) grid on the pool; jobs
      // are ordered [random, app, app_long] per corner.
      std::vector<dta::CharacterizeJob> jobs;
      for (const liberty::Corner& corner : scale.corners) {
        jobs.push_back(per_fu.context->characterizeJob(corner, random_wl));
        jobs.push_back(per_fu.context->characterizeJob(corner, app_wl));
        jobs.push_back(per_fu.context->characterizeJob(corner, app_long));
      }
      std::vector<dta::DtaTrace> grid = dta::characterizeAll(jobs, pool);
      for (std::size_t c = 0; c < scale.corners.size(); ++c) {
        const liberty::Corner& corner = scale.corners[c];
        train_traces.push_back(grid[3 * c]);
        train_traces.push_back(std::move(grid[3 * c + 1]));
        calib_traces.push_back(std::move(grid[3 * c]));
        calib_traces.push_back(std::move(grid[3 * c + 2]));
        // Base clock: the dataset's fastest error-free clock at this
        // condition ("so that the output has timing errors"), from
        // the long app characterization — as in Table III.
        per_fu.base_clock[core::cornerKey(corner)] =
            calib_traces.back().baseClockPs();
      }
      per_fu.suite =
          core::trainModelSuite(train_traces, rng, ml::ForestParams{},
                                &pool);
      per_fu.suite.delay_based = core::DelayBasedModel();
      per_fu.suite.delay_based.calibrate(calib_traces);
      per_fu.suite.ter_based = core::TerBasedModel();
      per_fu.suite.ter_based.calibrate(calib_traces);
      auto [it, inserted] = experiment.fus.emplace(kind, std::move(per_fu));
      // Materialize the ErrorModel views once, after the suite has
      // reached its final address.
      it->second.models = it->second.suite.errorModels();
    }

    // Evaluate each (condition, clock, image) cell.
    std::size_t matched[4] = {0, 0, 0, 0};
    std::size_t cells = 0;
    std::size_t gt_unacceptable = 0;
    for (const liberty::Corner& corner : scale.corners) {
      for (const double speedup : dta::kClockSpeedups) {
        for (std::size_t img = 0; img < eval_images; ++img) {
          const apps::Image& input = images[train_images + img];
          const apps::Image reference =
              apps::runApp(app, input, *std::make_unique<apps::ExactExecutor>(),
                           apps::NumericMode::kInteger);

          // Ground truth: simulation-backed injection.
          apps::ErrorInjectingExecutor gt_exec(0x61u + cells);
          for (const circuits::FuKind kind : kInjectedFus) {
            auto& per_fu = experiment.fus.at(kind);
            const double tclk = dta::speedupClockPs(
                per_fu.base_clock.at(core::cornerKey(corner)), speedup);
            gt_exec.setOracle(
                kind, std::make_unique<apps::SimOracle>(
                          per_fu.context->netlist(),
                          per_fu.context->delaysAt(corner), tclk,
                          apps::SimOracle::ValueMode::kRandomValue));
          }
          const apps::Image gt_image = apps::runApp(
              app, input, gt_exec, apps::NumericMode::kInteger);
          const bool gt_ok = apps::isAcceptable(reference, gt_image);
          if (!gt_ok) ++gt_unacceptable;

          // Each model: predictive injection with random values.
          for (int m = 0; m < 4; ++m) {
            apps::ErrorInjectingExecutor exec(0x77u + cells * 7 +
                                              static_cast<unsigned>(m));
            for (const circuits::FuKind kind : kInjectedFus) {
              auto& per_fu = experiment.fus.at(kind);
              const double tclk = dta::speedupClockPs(
                  per_fu.base_clock.at(core::cornerKey(corner)), speedup);
              exec.setOracle(
                  kind, std::make_unique<apps::ModelOracle>(
                            *per_fu.models[static_cast<std::size_t>(m)],
                            corner, tclk));
            }
            const apps::Image model_image = apps::runApp(
                app, input, exec, apps::NumericMode::kInteger);
            const bool model_ok =
                apps::isAcceptable(reference, model_image);
            if (model_ok == gt_ok) ++matched[m];
          }
          ++cells;
        }
      }
    }

    std::printf("  %-12s", std::string(apps::appName(app)).c_str());
    for (int m = 0; m < 4; ++m) {
      const double accuracy =
          static_cast<double>(matched[m]) / static_cast<double>(cells);
      totals[m] += accuracy;
      std::printf(" %s", formatPercent(accuracy,
                                       m == 1 ? 12 : 10).c_str());
    }
    std::printf(" %s\n",
                formatPercent(static_cast<double>(gt_unacceptable) /
                                  static_cast<double>(cells),
                              12)
                    .c_str());
  }

  std::printf("\nAverages (paper: TEVoT 97%%, Delay-based 79.9%%, "
              "TER-based 59.1%%, TEVoT-NH 65%%):\n");
  for (int m = 0; m < 4; ++m) {
    std::printf("  %-12s %s\n", model_names[m],
                formatPercent(totals[m] / 2.0, 10).c_str());
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();
  writeBenchJson("table4_quality_estimation", pool.threadCount(), wall,
                 {{"tevot_accuracy", totals[0] / 2.0}});
  return 0;
}
