#include "check/sweep_oracle.hpp"

#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "check/oracles.hpp"
#include "check/property.hpp"
#include "dta/sweep.hpp"
#include "dta/trace_io.hpp"
#include "dta/workload.hpp"
#include "tevot/pipeline.hpp"
#include "util/fault_injection.hpp"

namespace tevot::check {

namespace {

/// One pass under `faults`: every job faulty at job.exception failed
/// with FAULT_INJECTED and left no trace; every sibling succeeded with
/// a trace bit-identical to the clean serial run.
void expectIsolated(const dta::SweepResult& result,
                    const util::FaultInjector& faults,
                    const std::vector<dta::DtaTrace>& clean) {
  for (std::size_t j = 0; j < clean.size(); ++j) {
    const dta::JobOutcome& outcome = result.report.outcomes[j];
    if (faults.siteIsFaulty("job.exception", outcome.key)) {
      expect(outcome.state == dta::JobState::kFailed &&
                 outcome.status.code == util::StatusCode::kFaultInjected,
             "faulty job " + outcome.key + " is " +
                 dta::jobStateName(outcome.state) + " (" +
                 outcome.status.toString() +
                 "), expected failed with FAULT_INJECTED");
      expect(!result.traces[j].has_value(),
             "failed job " + outcome.key + " still produced a trace");
    } else {
      expect(outcome.state == dta::JobState::kSucceeded &&
                 result.traces[j].has_value() &&
                 dta::tracesBitIdentical(*result.traces[j], clean[j]),
             "sibling " + outcome.key + " is " +
                 dta::jobStateName(outcome.state) +
                 " or differs from the clean serial run");
    }
  }
}

}  // namespace

void checkSweepFaultTolerance(std::uint64_t seed, util::Rng& rng) {
  core::FuContext context(circuits::FuKind::kIntAdd);

  // A small random grid cell set: 4 jobs, 6-12 cycles each.
  constexpr std::size_t kJobs = 4;
  std::vector<liberty::Corner> corners;
  std::vector<dta::Workload> workloads;
  for (std::size_t j = 0; j < kJobs; ++j) {
    corners.push_back(randomCorner(rng));
    workloads.push_back(dta::randomWorkloadFor(
        context.kind(),
        static_cast<std::size_t>(rng.nextInRange(6, 12)), rng));
  }
  std::vector<dta::CharacterizeJob> jobs;
  for (std::size_t j = 0; j < kJobs; ++j) {
    dta::CharacterizeJob job =
        context.characterizeJob(corners[j], workloads[j]);
    job.name = "sweep_oracle_j" + std::to_string(j);
    jobs.push_back(std::move(job));
  }

  // The reference: a clean serial run.
  util::ThreadPool serial_pool(1);
  const std::vector<dta::DtaTrace> clean =
      dta::characterizeAll(jobs, serial_pool);

  util::ThreadPool pool(3);

  // Phase 1: transient faults (~30% of jobs fail their first
  // execution) into a checkpoint directory. The faulty jobs fail, the
  // rest checkpoint; a --resume pass recovers the sweep.
  util::FaultInjector transient;
  {
    util::FaultPlan plan;
    plan.seed = seed;
    plan.rate = 0.3;
    plan.points = {"job.exception", "job.slow"};
    plan.fail_attempts = 1;
    plan.slow_ms = 1.0;
    transient.arm(plan);
  }
  struct TempDir {
    std::filesystem::path path;
    ~TempDir() { std::filesystem::remove_all(path); }
  } dir{std::filesystem::temp_directory_path() /
        ("tevot_sweep_oracle_" + std::to_string(::getpid()) + "_" +
         std::to_string(seed))};
  std::filesystem::remove_all(dir.path);
  dta::SweepOptions options;
  options.faults = &transient;
  options.checkpoint_dir = dir.path.string();
  expectIsolated(dta::runSweep(jobs, pool, options), transient, clean);

  options.resume = true;
  const dta::SweepResult resumed = dta::runSweep(jobs, pool, options);
  expect(resumed.report.allOk(),
         "--resume must recover every job: " + resumed.report.summary());
  for (std::size_t j = 0; j < kJobs; ++j) {
    const dta::JobOutcome& outcome = resumed.report.outcomes[j];
    const dta::JobState expected =
        transient.siteIsFaulty("job.exception", outcome.key)
            ? dta::JobState::kSucceeded
            : dta::JobState::kRestored;
    expect(outcome.state == expected,
           "job " + outcome.key + " is " + dta::jobStateName(outcome.state) +
               " on resume, expected " + dta::jobStateName(expected));
    expect(resumed.traces[j].has_value() &&
               dta::tracesBitIdentical(*resumed.traces[j], clean[j]),
           "job " + outcome.key +
               " trace differs from the clean serial run after resume");
  }

  // Phase 2: permanent faults without checkpoints — faulty jobs must
  // be isolated and reported failed; siblings must survive.
  util::FaultInjector permanent;
  {
    util::FaultPlan plan;
    plan.seed = seed;
    plan.rate = 0.3;
    plan.points = {"job.exception"};
    plan.fail_attempts = 1000;
    permanent.arm(plan);
  }
  dta::SweepOptions isolated_options;
  isolated_options.faults = &permanent;
  expectIsolated(dta::runSweep(jobs, pool, isolated_options), permanent,
                 clean);
}

}  // namespace tevot::check
