#include "check/dvfs_oracle.hpp"

#include <string>
#include <vector>

#include "check/property.hpp"
#include "check/serve_oracle.hpp"
#include "dvfs/run.hpp"
#include "serve/server.hpp"
#include "tevot/pipeline.hpp"
#include "util/fault_injection.hpp"

namespace tevot::check {

namespace {

/// Sound fallback clock for the oracle FU: the STA critical path at
/// the worst grid corner (0.81 V, 100 C — delay is non-increasing in
/// V, non-decreasing in T) with 10% margin. Simulated delays never
/// exceed STA at the same corner (the sim-vs-STA oracle pins that),
/// so this clock can never be escaped — which is exactly what lets
/// the property demand zero escapes under arbitrary faults.
double certifiedSafeTclkPs() {
  static const double tclk = [] {
    core::FuContext context(circuits::FuKind::kIntAdd);
    return context.staCriticalPathPs({0.81, 100.0}) * 1.1;
  }();
  return tclk;
}

verify::SafeTclkCertificate oracleCertificate() {
  verify::SafeTclkCertificate cert;
  cert.model_path = "oracle";
  cert.history = true;
  cert.feature_count = 1;
  cert.tree_count = 1;
  cert.v_lo = 0.81;
  cert.v_hi = 1.00;
  cert.t_lo = 0.0;
  cert.t_hi = 100.0;
  cert.tclk_ps = certifiedSafeTclkPs();
  cert.certified = true;
  return cert;
}

dvfs::RunReport runOnce(const std::string& model_dir,
                        const verify::SafeTclkCertificate& cert,
                        std::uint64_t seed) {
  util::FaultInjector faults;
  {
    util::FaultPlan plan;
    plan.seed = seed;
    plan.rate = 0.1;
    plan.points = {"serve.accept", "serve.parse", "serve.predict",
                   "serve.slow"};
    plan.fail_attempts = 1;
    plan.slow_ms = 1.0;  // wall-time only with deadline 0
    faults.arm(plan);
  }
  serve::ServerOptions server_options;
  server_options.model_dir = model_dir;
  server_options.faults = &faults;
  serve::Server server(server_options);
  const util::Status started = server.start();
  expect(started.ok(), "server failed to start: " + started.message);

  std::vector<dvfs::FuSetup> fus(1);
  fus[0].kind = circuits::FuKind::kIntAdd;
  fus[0].cert = cert;

  dvfs::RunOptions options;
  options.stream.cycles = 257;  // 256 transitions -> 16 windows
  options.stream.window = 16;
  options.stream.seed = seed;
  options.serve_port = server.port();

  util::ThreadPool pool(1);
  dvfs::RunReport run = dvfs::runDvfs(fus, options, pool);
  server.drainAndStop();
  return run;
}

}  // namespace

void checkDvfsSafety(std::uint64_t seed, util::Rng& rng) {
  (void)rng;  // all randomness derives from `seed` via the stream/plan
  const OracleModel oracle = oracleModel();
  const verify::SafeTclkCertificate cert = oracleCertificate();

  const dvfs::RunReport run = runOnce(oracle.model_dir, cert, seed);
  expect(run.fus.size() == 1, "expected one FU report");
  const dvfs::DvfsReport& report = run.fus[0];
  expect(report.status.ok(),
         "controller refused adaptive mode: " + report.status.message);
  expect(report.windows == 16,
         "expected 16 windows, got " + std::to_string(report.windows));

  // (2) exactly one clock decision per window.
  expect(report.adaptive_windows + report.fallback_windows == report.windows,
         "window accounting mismatch: " + report.toJson());
  std::size_t trace_lines = 0;
  for (const char c : report.trace) {
    if (c == '\n') ++trace_lines;
  }
  expect(trace_lines == report.windows,
         "trace must carry exactly one line per window: " +
             std::to_string(trace_lines) + " lines for " +
             std::to_string(report.windows) + " windows");

  // (3) every degraded response lands in exactly one fallback counter.
  expect(report.fallback.total() == report.fallback_windows,
         "fallback counters do not account for the fallback windows: " +
             report.toJson());

  // (1) a sound certificate means faults cost throughput, never safety.
  expect(report.escapes == 0,
         "unrecovered violations under faults: " + report.toJson());
  expect(report.recovered == report.violations,
         "recovery accounting mismatch: " + report.toJson());

  // (4) rerun on a fresh identically-faulted server: byte-identical.
  const dvfs::RunReport rerun = runOnce(oracle.model_dir, cert, seed);
  expect(rerun.fus.size() == 1 && rerun.fus[0].status.ok(),
         "rerun refused adaptive mode");
  expect(rerun.fus[0].trace == report.trace,
         "controller trace is not reproducible across reruns");
  expect(rerun.fus[0].toJson() == report.toJson(),
         "controller report is not reproducible across reruns");
}

}  // namespace tevot::check
