// Guardband exploration — the paper's "Usage" scenario for circuit
// designers: given a trained TEVoT model, sweep the supply voltage at
// a fixed clock period and report the predicted timing-error rate per
// condition, exposing how much voltage guardband a workload really
// needs (as opposed to the worst-case STA margin).
//
// For each voltage on the Table I grid at 50 C, the example prints:
//   * the STA critical-path delay (the conventional sign-off bound),
//   * the maximum observed dynamic delay,
//   * the TEVoT-predicted error rate at the fixed target clock,
//   * the simulated (ground-truth) error rate.
// The voltage where the predicted rate crosses zero is the model's
// recommended operating point; the gap to the STA-safe voltage is the
// recovered guardband.
//
// Run:  ./guardband_explorer [clock_ps]
#include <cstdio>

#include "tevot/operating_grid.hpp"
#include "tevot/pipeline.hpp"
#include "util/env.hpp"

int main(int argc, char** argv) {
  using namespace tevot;

  // 0 (the default) picks the clock below.
  double tclk = 0.0;
  if (argc > 2 || (argc > 1 && !util::parseNumber(argv[1], 0.0, 1e12, &tclk))) {
    std::fprintf(stderr, "usage: guardband_explorer [clock_ps in [0, 1e12]]\n");
    return 2;
  }

  core::FuContext context(circuits::FuKind::kIntMul);
  util::Rng rng(77);
  const double temperature = 50.0;

  // Train once across the voltage range.
  std::vector<dta::DtaTrace> train_traces;
  for (double v = 0.81; v <= 1.0001; v += 0.02) {
    train_traces.push_back(context.characterize(
        {v, temperature},
        dta::randomWorkloadFor(context.kind(), 1200, rng)));
  }
  core::TevotModel model;
  model.train(train_traces, rng);

  // Target clock: by default 5% faster than the error-free clock at
  // 0.93 V (i.e. safe at nominal, aggressive at low voltage).
  if (tclk == 0.0) {
    tclk = dta::speedupClockPs(train_traces[6].baseClockPs(), 0.05);
  }
  std::printf("Guardband exploration for %s at %.0f C, clock %.1f ps\n\n",
              std::string(circuits::fuName(context.kind())).c_str(),
              temperature, tclk);
  std::printf("  %7s %12s %12s %14s %14s\n", "V", "STA ps", "max dyn ps",
              "TEVoT err%", "simulated err%");

  const auto test_workload =
      dta::randomWorkloadFor(context.kind(), 500, rng);
  double safe_voltage_predicted = -1.0;
  double safe_voltage_simulated = -1.0;
  double safe_voltage_sta = -1.0;
  for (double v = 0.81; v <= 1.0001; v += 0.01) {
    const liberty::Corner corner{v, temperature};
    const double sta = context.staCriticalPathPs(corner);
    const dta::DtaTrace trace =
        context.characterize(corner, test_workload);

    std::size_t predicted_errors = 0;
    for (const dta::DtaSample& sample : trace.samples) {
      if (model.predictError(sample.a, sample.b, sample.prev_a,
                             sample.prev_b, corner, tclk)) {
        ++predicted_errors;
      }
    }
    const double predicted_rate =
        static_cast<double>(predicted_errors) /
        static_cast<double>(trace.samples.size());
    const double simulated_rate = trace.timingErrorRate(tclk);
    std::printf("  %5.2fV %12.1f %12.1f %13.2f%% %13.2f%%\n", v, sta,
                trace.maxDelayPs(), 100.0 * predicted_rate,
                100.0 * simulated_rate);

    if (safe_voltage_predicted < 0.0 && predicted_rate == 0.0) {
      safe_voltage_predicted = v;
    }
    if (safe_voltage_simulated < 0.0 && simulated_rate == 0.0) {
      safe_voltage_simulated = v;
    }
    if (safe_voltage_sta < 0.0 && sta <= tclk) {
      safe_voltage_sta = v;
    }
  }

  std::printf("\nLowest error-free voltage: TEVoT-predicted %.2f V, "
              "simulated %.2f V; STA sign-off %s.\n",
              safe_voltage_predicted, safe_voltage_simulated,
              safe_voltage_sta > 0.0 ? "meets the clock below 1.00 V"
                                     : "needs more than 1.00 V (the "
                                       "critical path never meets this "
                                       "clock)");
  std::printf("Workload-aware modeling recovers most of the STA "
              "guardband; the residual gap between the predicted and "
              "simulated safe voltages is the model's tail error.\n");
  return 0;
}
