// Closed-loop adaptive-clocking bench: throughput gained by letting
// TEVoT pick the per-window clock vs running every cycle at the
// worst-case certified clock, with the full recovery machinery in the
// loop (Razor-style replay, guardband watchdog, certificate
// fallback). This is the paper's motivating application measured end
// to end: the model's headroom over the static STA bound is exactly
// the frequency the controller can safely reclaim.
//
// Two outputs:
//  * bench_out/dvfs_closed_loop.json (TEVOT_BENCH_OUT),
//  * BENCH_dvfs_closed_loop.json in the current directory — run from
//    the repo root so the committed copy tracks gain across PRs.
//
// The scale is fixed (kTrainCycles, kStreamCycles, kWindow, kGuardband
// and kSeed below); of the shared bench knobs only --jobs / TEVOT_JOBS
// applies.
//
// Window size and guardband trade throughput against replay cost: a
// violating window replays whole at the certified clock, so the
// expected replay cost over N transitions is N*(1-(1-p)^W)*tclk_cert
// for per-transition violation probability p — shrinking W (and
// shrinking p via the guardband) is what turns model headroom into
// actual gain. The defaults hold gain > 1 on both FUs at the bench's
// reduced training scale.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dvfs/run.hpp"
#include "tevot/model.hpp"
#include "tevot/pipeline.hpp"
#include "util/fault_injection.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace tevot;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kTrainCycles = 300;    ///< training ops per corner
constexpr std::size_t kStreamCycles = 1025;  ///< stream ops per FU
constexpr std::size_t kWindow = 16;          ///< transitions per decision
constexpr double kGuardband = 0.25;
constexpr std::uint64_t kSeed = 1;  ///< stream seed

core::TevotModel trainModel(core::FuContext& context, std::size_t cycles,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<dta::DtaTrace> traces;
  for (const liberty::Corner corner :
       {liberty::Corner{0.85, 25.0}, liberty::Corner{1.00, 75.0}}) {
    traces.push_back(context.characterize(
        corner, dta::randomWorkloadFor(context.kind(), cycles, rng)));
  }
  core::TevotModel model;
  model.train(traces, rng);
  return model;
}

/// Sound certificate from the STA bound at the worst grid corner (the
/// delay monotonicity direction: low V, high T) plus 5% margin — the
/// same construction `tevot_cli verify-model --cert` certifies, done
/// in-process so the bench is self-contained.
verify::SafeTclkCertificate makeCertificate(core::FuContext& context) {
  verify::SafeTclkCertificate cert;
  cert.model_path = std::string(circuits::fuSlug(context.kind()));
  cert.history = true;
  cert.feature_count = 1;
  cert.tree_count = 1;
  cert.v_lo = 0.81;
  cert.v_hi = 1.00;
  cert.t_lo = 0.0;
  cert.t_hi = 100.0;
  cert.tclk_ps = context.staCriticalPathPs({0.81, 100.0}) * 1.05;
  cert.certified = true;
  return cert;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchScale scale =
      bench::BenchScale::fromEnvironment(argc, argv);
  const auto start = Clock::now();
  const std::vector<circuits::FuKind> kinds = {circuits::FuKind::kIntAdd,
                                               circuits::FuKind::kIntMul};

  std::vector<std::unique_ptr<core::FuContext>> contexts;
  std::vector<std::unique_ptr<core::TevotModel>> models;
  std::vector<dvfs::FuSetup> fus;
  for (const circuits::FuKind kind : kinds) {
    contexts.push_back(std::make_unique<core::FuContext>(kind));
    models.push_back(std::make_unique<core::TevotModel>(
        trainModel(*contexts.back(), kTrainCycles, kSeed + 17)));
    dvfs::FuSetup setup;
    setup.kind = kind;
    setup.model = models.back().get();
    setup.cert = makeCertificate(*contexts.back());
    fus.push_back(std::move(setup));
  }

  util::FaultInjector quiet;  // clean run: gain without induced faults
  dvfs::RunOptions options;
  options.stream.cycles = kStreamCycles;
  options.stream.window = kWindow;
  options.stream.seed = kSeed;
  options.controller.guardband = kGuardband;
  options.faults = &quiet;

  util::ThreadPool pool(scale.jobs);
  const dvfs::RunReport run = dvfs::runDvfs(fus, options, pool);
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<std::pair<std::string, double>> metrics = {
      {"train_cycles", static_cast<double>(kTrainCycles)},
      {"stream_cycles", static_cast<double>(kStreamCycles)},
      {"window", static_cast<double>(kWindow)},
  };
  bool all_ok = true;
  for (const dvfs::DvfsReport& report : run.fus) {
    if (!report.status.ok()) {
      std::fprintf(stderr, "bench_dvfs_closed_loop: %s refused: %s\n",
                   report.fu.c_str(), report.status.message.c_str());
      all_ok = false;
      continue;
    }
    std::printf(
        "  %s: certified %.1f ps, gain %.3fx over %zu windows "
        "(viol=%llu recovered=%llu escapes=%llu widenings=%llu)\n",
        report.fu.c_str(), report.certified_tclk_ps, report.gain(),
        report.windows,
        static_cast<unsigned long long>(report.violations),
        static_cast<unsigned long long>(report.recovered),
        static_cast<unsigned long long>(report.escapes),
        static_cast<unsigned long long>(report.widenings));
    metrics.emplace_back(report.fu + "_gain", report.gain());
    metrics.emplace_back(report.fu + "_escapes",
                         static_cast<double>(report.escapes));
    metrics.emplace_back(report.fu + "_fallback_windows",
                         static_cast<double>(report.fallback_windows));
  }
  bench::writeBenchJson("dvfs_closed_loop", scale.jobs, wall, metrics);

  // The committed repo-root copy (run from the repo root).
  std::ofstream os("BENCH_dvfs_closed_loop.json");
  if (os) {
    util::json::Writer json;
    json.beginObject().field("wall_clock_s", wall).key("report");
    os << json.raw(run.toJson("bench")).endObject().str() << "\n";
  }
  return all_ok ? 0 : 1;
}
