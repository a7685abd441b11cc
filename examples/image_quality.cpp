// Application-resilience assessment — the paper's "Usage" scenario
// for software developers: estimate how an image-processing kernel
// degrades under voltage/temperature-induced timing errors without
// access to circuit simulation, using a trained TEVoT model to drive
// error injection.
//
// Runs the Sobel filter at one operating condition and several clock
// speedups, producing for each speedup:
//   * the simulation-ground-truth output (per-op gate-level timing),
//   * the TEVoT-estimated output (model-predicted errors),
// and writes all images as PGM files alongside their PSNR.
//
// Run:  ./image_quality [voltage] [temperature]
#include <cstdio>
#include <filesystem>
#include <memory>

#include "apps/filters.hpp"
#include "apps/profile.hpp"
#include "apps/synth_images.hpp"
#include "tevot/pipeline.hpp"
#include "util/env.hpp"

int main(int argc, char** argv) {
  using namespace tevot;

  liberty::Corner corner{0.85, 50.0};
  if (argc > 3 ||
      (argc > 1 && !util::parseNumber(argv[1], 1e-3, 10.0, &corner.voltage)) ||
      (argc > 2 &&
       !util::parseNumber(argv[2], -273.15, 1000.0, &corner.temperature))) {
    std::fprintf(stderr,
                 "usage: image_quality [voltage in [0.001, 10] V] "
                 "[temperature in [-273.15, 1000] C]\n");
    return 2;
  }
  constexpr circuits::FuKind kFus[] = {circuits::FuKind::kIntAdd,
                                       circuits::FuKind::kIntMul};

  // Input image and the profiled application streams.
  const auto images = apps::synthImageSet(2, 0x1111);
  const apps::Image& input = images[1];
  const std::span<const apps::Image> profile_span{images.data(), 1};
  auto streams =
      apps::profileAppWorkloads(apps::AppKind::kSobel, profile_span);

  std::printf("Sobel resilience at (%.2f V, %.0f C), %dx%d input\n\n",
              corner.voltage, corner.temperature, input.width(),
              input.height());

  // Per-FU: characterize, train, remember base clock.
  struct PerFu {
    std::unique_ptr<core::FuContext> context;
    core::TevotModel model;
    double base_clock = 0.0;
  };
  std::map<circuits::FuKind, PerFu> fus;
  util::Rng rng(0x2222);
  for (const circuits::FuKind kind : kFus) {
    PerFu per_fu;
    per_fu.context = std::make_unique<core::FuContext>(kind);
    std::vector<dta::DtaTrace> traces;
    traces.push_back(per_fu.context->characterize(
        corner, dta::randomWorkloadFor(kind, 1200, rng)));
    traces.push_back(per_fu.context->characterize(
        corner, dta::resizeWorkload(streams[kind], 4000)));
    per_fu.base_clock = traces.back().baseClockPs();
    per_fu.model.train(traces, rng);
    fus.emplace(kind, std::move(per_fu));
  }

  std::filesystem::create_directories("example_out");
  apps::ExactExecutor exact;
  const apps::Image reference =
      apps::sobelFilter(input, exact, apps::NumericMode::kInteger);
  apps::writePgm("example_out/sobel_reference.pgm", reference);
  apps::writePgm("example_out/sobel_input.pgm", input);

  std::printf("  %8s %20s %20s\n", "speedup", "simulated PSNR",
              "TEVoT-estimated PSNR");
  for (const double speedup : {0.02, 0.05, 0.10, 0.15}) {
    // Ground truth: per-op gate-level simulation.
    apps::ErrorInjectingExecutor gt_exec(7);
    // TEVoT estimate: model-predicted errors, random-value injection.
    apps::ErrorInjectingExecutor model_exec(8);
    std::vector<std::unique_ptr<core::ErrorModel>> model_views;
    for (const circuits::FuKind kind : kFus) {
      PerFu& per_fu = fus.at(kind);
      const double tclk =
          dta::speedupClockPs(per_fu.base_clock, speedup);
      gt_exec.setOracle(
          kind, std::make_unique<apps::SimOracle>(
                    per_fu.context->netlist(),
                    per_fu.context->delaysAt(corner), tclk,
                    apps::SimOracle::ValueMode::kRandomValue));
      model_views.push_back(
          std::make_unique<core::TevotErrorModel>(per_fu.model));
      model_exec.setOracle(kind, std::make_unique<apps::ModelOracle>(
                                     *model_views.back(), corner, tclk));
    }
    const apps::Image gt = apps::sobelFilter(input, gt_exec,
                                             apps::NumericMode::kInteger);
    const apps::Image estimated = apps::sobelFilter(
        input, model_exec, apps::NumericMode::kInteger);

    const std::string tag = std::to_string(static_cast<int>(
        speedup * 100.0));
    apps::writePgm("example_out/sobel_gt_+" + tag + "pct.pgm", gt);
    apps::writePgm("example_out/sobel_tevot_+" + tag + "pct.pgm",
                   estimated);
    const double gt_psnr = apps::psnrDb(reference, gt);
    const double est_psnr = apps::psnrDb(reference, estimated);
    std::printf("  %7.0f%% %17.1f dB %17.1f dB   %s\n", speedup * 100.0,
                gt_psnr, est_psnr,
                (gt_psnr >= apps::kAcceptablePsnrDb) ==
                        (est_psnr >= apps::kAcceptablePsnrDb)
                    ? "(agree)"
                    : "(DISAGREE)");
  }
  std::printf("\nImages written to example_out/*.pgm\n");
  return 0;
}
