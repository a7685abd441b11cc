// runSweep tests: the retry/deadline/resume matrix the fault-tolerant
// sweep engine must satisfy — transient faults recover within
// --max-retries with bit-identical traces, permanent faults are
// isolated to their job, deadline overruns are classified, fail-fast
// cancels later jobs, and kill-and-resume reruns only the corners
// that never completed (counted via the on_attempt hook).
#include "dta/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "circuits/fu.hpp"
#include "dta/trace_io.hpp"
#include "tevot/pipeline.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace tevot::dta {
namespace {

using util::StatusCode;

/// Shared fixture state: four named jobs over distinct corners plus
/// the clean serial reference every surviving trace must match.
class SweepTest : public testing::Test {
 protected:
  SweepTest() : context_(circuits::FuKind::kIntAdd) {
    util::Rng rng(23);
    const liberty::Corner corners[] = {
        {0.81, 0.0}, {0.85, 25.0}, {0.90, 50.0}, {1.00, 100.0}};
    for (std::size_t c = 0; c < 4; ++c) {
      workloads_.push_back(
          randomWorkloadFor(circuits::FuKind::kIntAdd, 8, rng));
    }
    for (std::size_t c = 0; c < 4; ++c) {
      CharacterizeJob job = context_.characterizeJob(corners[c],
                                                     workloads_[c]);
      job.name = "sweep_test_j" + std::to_string(c);
      jobs_.push_back(std::move(job));
    }
    util::ThreadPool serial(1);
    reference_ = characterizeAll(jobs_, serial);
  }

  /// Fault plan hitting every site of `point` (rate=1).
  static util::FaultPlan allFaulty(const std::string& point) {
    util::FaultPlan plan;
    plan.rate = 1.0;
    plan.points = {point};
    plan.seed = 3;
    return plan;
  }

  /// Fresh scratch directory under the gtest temp root.
  static std::string scratchDir(const std::string& name) {
    const std::string dir = testing::TempDir() + "tevot_sweep_" + name;
    std::filesystem::remove_all(dir);
    return dir;
  }

  core::FuContext context_;
  std::vector<Workload> workloads_;
  std::vector<CharacterizeJob> jobs_;
  std::vector<DtaTrace> reference_;
};

TEST_F(SweepTest, CleanRunMatchesSerialReferenceAtAnyThreadCount) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    util::ThreadPool pool(threads);
    util::FaultInjector no_faults;
    SweepOptions options;
    options.faults = &no_faults;
    const SweepResult result = runSweep(jobs_, pool, options);
    EXPECT_TRUE(result.report.allOk());
    ASSERT_EQ(result.traces.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(result.traces[i].has_value());
      EXPECT_TRUE(tracesBitIdentical(*result.traces[i], reference_[i]));
      EXPECT_EQ(result.report.outcomes[i].attempts, 1);
      EXPECT_EQ(result.report.outcomes[i].state, JobState::kSucceeded);
    }
  }
}

TEST_F(SweepTest, TransientFaultsRecoverWithinMaxRetries) {
  util::FaultInjector faults;
  faults.arm(allFaulty("job.exception"));  // every job fails once
  util::ThreadPool pool(2);
  SweepOptions options;
  options.faults = &faults;
  options.max_retries = 2;
  options.backoff_ms = 0.1;
  const SweepResult result = runSweep(jobs_, pool, options);
  EXPECT_TRUE(result.report.allOk()) << result.report.toText();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.report.outcomes[i].attempts, 2) << "job " << i;
    ASSERT_TRUE(result.traces[i].has_value());
    EXPECT_TRUE(tracesBitIdentical(*result.traces[i], reference_[i]));
  }
}

TEST_F(SweepTest, PermanentFaultIsIsolatedToItsJob) {
  // A mixed faulty/clean job set: scan plan seeds until the rate-0.5
  // site selection splits our four keys (deterministic thereafter).
  util::FaultPlan plan;
  plan.rate = 0.5;
  plan.points = {"job.exception"};
  plan.fail_attempts = 1000;  // permanent at any realistic retry budget
  util::FaultInjector faults;
  bool mixed = false;
  for (std::uint64_t seed = 1; seed <= 64 && !mixed; ++seed) {
    plan.seed = seed;
    faults.arm(plan);
    int faulty = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      if (faults.siteIsFaulty("job.exception", jobs_[i].name)) ++faulty;
    }
    mixed = faulty > 0 && faulty < 4;
  }
  ASSERT_TRUE(mixed) << "no seed in 1..64 split 4 sites at rate 0.5";

  util::ThreadPool pool(3);
  SweepOptions options;
  options.faults = &faults;
  options.max_retries = 1;
  options.backoff_ms = 0.1;
  const SweepResult result = runSweep(jobs_, pool, options);
  EXPECT_FALSE(result.report.allOk());
  for (std::size_t i = 0; i < 4; ++i) {
    const JobOutcome& outcome = result.report.outcomes[i];
    if (faults.siteIsFaulty("job.exception", jobs_[i].name)) {
      EXPECT_EQ(outcome.state, JobState::kFailed) << "job " << i;
      EXPECT_EQ(outcome.attempts, 2) << "job " << i;  // retries exhausted
      EXPECT_EQ(outcome.status.code, StatusCode::kFaultInjected);
      EXPECT_FALSE(result.traces[i].has_value());
    } else {
      // Siblings of a permanently failing job are untouched.
      EXPECT_EQ(outcome.state, JobState::kSucceeded) << "job " << i;
      ASSERT_TRUE(result.traces[i].has_value());
      EXPECT_TRUE(tracesBitIdentical(*result.traces[i], reference_[i]));
    }
  }
}

TEST_F(SweepTest, InjectedSlownessTripsDeadlineThenRecovers) {
  // First attempt sleeps 60 ms against a 30 ms deadline; the fault is
  // transient so the retry runs at full speed and succeeds.
  util::FaultPlan plan = allFaulty("job.slow");
  plan.slow_ms = 60.0;
  util::FaultInjector faults;
  faults.arm(plan);
  util::ThreadPool pool(2);
  SweepOptions options;
  options.faults = &faults;
  options.max_retries = 1;
  options.backoff_ms = 0.0;
  options.job_deadline_ms = 30.0;
  const SweepResult result = runSweep(jobs_, pool, options);
  EXPECT_TRUE(result.report.allOk()) << result.report.toText();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.report.outcomes[i].attempts, 2) << "job " << i;
    ASSERT_TRUE(result.traces[i].has_value());
    EXPECT_TRUE(tracesBitIdentical(*result.traces[i], reference_[i]));
  }
}

TEST_F(SweepTest, ExhaustedDeadlineIsClassifiedDeadlineExceeded) {
  // Permanent slowness: every attempt overruns, so the job ends in
  // kDeadlineExceeded (not plain kFailed) with the full attempt count.
  util::FaultPlan plan = allFaulty("job.slow");
  plan.slow_ms = 40.0;
  plan.fail_attempts = 1000;
  util::FaultInjector faults;
  faults.arm(plan);
  util::ThreadPool pool(4);
  SweepOptions options;
  options.faults = &faults;
  options.max_retries = 1;
  options.backoff_ms = 0.0;
  options.job_deadline_ms = 20.0;
  const SweepResult result = runSweep(jobs_, pool, options);
  EXPECT_FALSE(result.report.allOk());
  for (std::size_t i = 0; i < 4; ++i) {
    const JobOutcome& outcome = result.report.outcomes[i];
    EXPECT_EQ(outcome.state, JobState::kDeadlineExceeded) << "job " << i;
    EXPECT_EQ(outcome.status.code, StatusCode::kDeadlineExceeded);
    EXPECT_EQ(outcome.attempts, 2) << "job " << i;
    EXPECT_FALSE(result.traces[i].has_value());
  }
}

TEST_F(SweepTest, FailFastCancelsJobsNotYetStarted) {
  // pool(1) claims indices in order, so job 0's final failure aborts
  // the sweep before jobs 1..3 start.
  util::FaultPlan plan = allFaulty("job.exception");
  plan.fail_attempts = 1000;
  util::FaultInjector faults;
  faults.arm(plan);
  util::ThreadPool pool(1);
  SweepOptions options;
  options.faults = &faults;
  options.max_retries = 0;
  options.fail_fast = true;
  const SweepResult result = runSweep(jobs_, pool, options);
  EXPECT_EQ(result.report.outcomes[0].state, JobState::kFailed);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(result.report.outcomes[i].state, JobState::kCancelled)
        << "job " << i;
    EXPECT_EQ(result.report.outcomes[i].status.code, StatusCode::kCancelled);
    EXPECT_EQ(result.report.outcomes[i].attempts, 0);
    EXPECT_FALSE(result.traces[i].has_value());
  }
  EXPECT_EQ(result.report.count(JobState::kCancelled), 3u);
}

TEST_F(SweepTest, ResumeRerunsOnlyIncompleteCorners) {
  // Run 1 with a permanent fault on a subset of jobs: the clean jobs
  // checkpoint, the faulty ones leave no file — the state a killed
  // sweep leaves on disk. Run 2 (faults cleared, --resume) must
  // execute exactly the jobs that have no checkpoint.
  const std::string dir = scratchDir("resume");
  util::FaultPlan plan;
  plan.rate = 0.5;
  plan.points = {"job.exception"};
  plan.fail_attempts = 1000;
  util::FaultInjector faults;
  std::set<std::size_t> faulty;
  for (std::uint64_t seed = 1; seed <= 64 && faulty.empty(); ++seed) {
    plan.seed = seed;
    faults.arm(plan);
    std::set<std::size_t> hit;
    for (std::size_t i = 0; i < 4; ++i) {
      if (faults.siteIsFaulty("job.exception", jobs_[i].name)) {
        hit.insert(i);
      }
    }
    if (!hit.empty() && hit.size() < 4) faulty = hit;
  }
  ASSERT_FALSE(faulty.empty());

  util::ThreadPool pool(2);
  SweepOptions options;
  options.faults = &faults;
  options.max_retries = 0;
  options.checkpoint_dir = dir;
  const SweepResult first = runSweep(jobs_, pool, options);
  EXPECT_EQ(first.report.count(JobState::kFailed), faulty.size());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::filesystem::exists(dir + "/" + jobs_[i].name + ".trace"),
              faulty.count(i) == 0)
        << "job " << i;
  }

  // Resume with faults gone: only the previously failed jobs execute.
  util::FaultInjector no_faults;
  std::atomic<int> executions{0};
  std::set<std::size_t> executed_jobs;
  std::mutex executed_mutex;
  SweepOptions resume_options;
  resume_options.faults = &no_faults;
  resume_options.checkpoint_dir = dir;
  resume_options.resume = true;
  resume_options.on_attempt = [&](std::size_t job, int) {
    ++executions;
    std::lock_guard<std::mutex> lock(executed_mutex);
    executed_jobs.insert(job);
  };
  const SweepResult second = runSweep(jobs_, pool, resume_options);
  EXPECT_TRUE(second.report.allOk()) << second.report.toText();
  EXPECT_EQ(executions.load(), static_cast<int>(faulty.size()));
  EXPECT_EQ(executed_jobs, faulty);
  for (std::size_t i = 0; i < 4; ++i) {
    const JobOutcome& outcome = second.report.outcomes[i];
    if (faulty.count(i) != 0) {
      EXPECT_EQ(outcome.state, JobState::kSucceeded) << "job " << i;
      EXPECT_EQ(outcome.attempts, 1);
    } else {
      EXPECT_EQ(outcome.state, JobState::kRestored) << "job " << i;
      EXPECT_EQ(outcome.attempts, 0);
    }
    ASSERT_TRUE(second.traces[i].has_value());
    EXPECT_TRUE(tracesBitIdentical(*second.traces[i], reference_[i]));
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/" + jobs_[i].name + ".trace"));
  }
  std::filesystem::remove_all(dir);
}

TEST_F(SweepTest, CorruptCheckpointIsRecomputedOnResume) {
  const std::string dir = scratchDir("corrupt");
  util::ThreadPool pool(2);
  util::FaultInjector no_faults;
  SweepOptions options;
  options.faults = &no_faults;
  options.checkpoint_dir = dir;
  ASSERT_TRUE(runSweep(jobs_, pool, options).report.allOk());

  // Truncate one checkpoint and scribble over another.
  {
    const std::string truncated = dir + "/" + jobs_[1].name + ".trace";
    const auto size = std::filesystem::file_size(truncated);
    std::filesystem::resize_file(truncated, size / 2);
    std::ofstream garbage(dir + "/" + jobs_[2].name + ".trace",
                          std::ios::trunc);
    garbage << "these are not the checkpoints you are looking for\n";
  }

  std::atomic<int> executions{0};
  SweepOptions resume_options;
  resume_options.faults = &no_faults;
  resume_options.checkpoint_dir = dir;
  resume_options.resume = true;
  resume_options.on_attempt = [&](std::size_t, int) { ++executions; };
  const SweepResult result = runSweep(jobs_, pool, resume_options);
  EXPECT_TRUE(result.report.allOk()) << result.report.toText();
  EXPECT_EQ(executions.load(), 2);  // only the two damaged corners
  EXPECT_EQ(result.report.count(JobState::kRestored), 2u);
  EXPECT_EQ(result.report.count(JobState::kSucceeded), 2u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(result.traces[i].has_value());
    EXPECT_TRUE(tracesBitIdentical(*result.traces[i], reference_[i]));
  }
  std::filesystem::remove_all(dir);
}

TEST_F(SweepTest, OutOfRangeOperandCheckpointIsRecomputedOnResume) {
  const std::string dir = scratchDir("operand");
  util::ThreadPool pool(2);
  util::FaultInjector no_faults;
  SweepOptions options;
  options.faults = &no_faults;
  options.checkpoint_dir = dir;
  ASSERT_TRUE(runSweep(jobs_, pool, options).report.allOk());

  // First sample's `a` becomes 2^32 + 1, which a 32-bit wrap would
  // read as a = 1. The reader rejects it as out of range (and a = 1
  // would not match the job's operands either).
  const std::string path = dir + "/" + jobs_[1].name + ".trace";
  std::string text;
  {
    std::ifstream is(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(is), {});
  }
  std::size_t first_sample = 0;
  for (int line = 0; line < 5; ++line) {
    first_sample = text.find('\n', first_sample) + 1;
  }
  text.replace(first_sample, text.find(' ', first_sample) - first_sample,
               "4294967297");
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
  }

  std::atomic<int> executions{0};
  SweepOptions resume_options;
  resume_options.faults = &no_faults;
  resume_options.checkpoint_dir = dir;
  resume_options.resume = true;
  resume_options.on_attempt = [&](std::size_t, int) { ++executions; };
  const SweepResult result = runSweep(jobs_, pool, resume_options);
  EXPECT_TRUE(result.report.allOk()) << result.report.toText();
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(result.report.outcomes[1].state, JobState::kSucceeded);
  EXPECT_EQ(result.report.count(JobState::kRestored), 3u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(result.traces[i].has_value());
    EXPECT_TRUE(tracesBitIdentical(*result.traces[i], reference_[i]));
  }
  std::filesystem::remove_all(dir);
}

TEST_F(SweepTest, ResumeWithAnotherOperandStreamRecomputes) {
  // Same job names, workload names and lengths, operands from another
  // seed (a rerun with a different --seed over the same directory):
  // no checkpoint holds these jobs' operands, so nothing is restored.
  const std::string dir = scratchDir("reseeded");
  util::ThreadPool pool(2);
  util::FaultInjector no_faults;
  SweepOptions options;
  options.faults = &no_faults;
  options.checkpoint_dir = dir;
  ASSERT_TRUE(runSweep(jobs_, pool, options).report.allOk());

  util::Rng rng(24);
  std::vector<Workload> reseeded;
  for (std::size_t c = 0; c < 4; ++c) {
    reseeded.push_back(randomWorkloadFor(circuits::FuKind::kIntAdd, 8, rng));
    ASSERT_EQ(reseeded[c].name, workloads_[c].name);
  }
  std::vector<CharacterizeJob> jobs = jobs_;
  for (std::size_t c = 0; c < 4; ++c) jobs[c].workload = &reseeded[c];
  util::ThreadPool serial(1);
  const std::vector<DtaTrace> reference = characterizeAll(jobs, serial);

  SweepOptions resume_options;
  resume_options.faults = &no_faults;
  resume_options.checkpoint_dir = dir;
  resume_options.resume = true;
  const SweepResult result = runSweep(jobs, pool, resume_options);
  EXPECT_TRUE(result.report.allOk()) << result.report.toText();
  EXPECT_EQ(result.report.count(JobState::kRestored), 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(result.traces[i].has_value());
    EXPECT_TRUE(tracesBitIdentical(*result.traces[i], reference[i]));
  }
  std::filesystem::remove_all(dir);
}

TEST_F(SweepTest, CheckpointDirHoldsOnlyFinalTraceFiles) {
  const std::string dir = scratchDir("atomic");
  util::ThreadPool pool(2);
  util::FaultInjector faults;
  faults.arm(allFaulty("io.write"));  // every first checkpoint write fails
  SweepOptions options;
  options.faults = &faults;
  options.max_retries = 2;
  options.backoff_ms = 0.1;
  options.checkpoint_dir = dir;
  const SweepResult result = runSweep(jobs_, pool, options);
  EXPECT_TRUE(result.report.allOk()) << result.report.toText();
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".trace") << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 4u);
  std::filesystem::remove_all(dir);
}

TEST_F(SweepTest, RejectsNullAndDuplicateJobs) {
  util::ThreadPool pool(1);
  std::vector<CharacterizeJob> null_jobs(1);
  EXPECT_THROW(runSweep(null_jobs, pool), std::invalid_argument);

  std::vector<CharacterizeJob> dup_jobs;
  dup_jobs.push_back(jobs_[0]);
  dup_jobs.push_back(jobs_[1]);
  dup_jobs[1].name = dup_jobs[0].name;
  SweepOptions options;
  util::FaultInjector no_faults;
  options.faults = &no_faults;
  options.checkpoint_dir = scratchDir("dup");
  EXPECT_THROW(runSweep(dup_jobs, pool, options), std::invalid_argument);
  // Without checkpointing, duplicate keys are harmless and allowed.
  EXPECT_NO_THROW(runSweep(dup_jobs, pool));
}

TEST_F(SweepTest, DefaultJobKeysAreIndexDerived) {
  CharacterizeJob unnamed = jobs_[2];
  unnamed.name.clear();
  EXPECT_EQ(sweepJobKey(unnamed, 5), "job5");
  EXPECT_EQ(sweepJobKey(jobs_[2], 5), jobs_[2].name);
}

TEST_F(SweepTest, StopRequestedCancelsRemainingJobsButFlushesStarted) {
  // Serial pool + a stop flag that flips after the first job starts:
  // job 0 must complete and checkpoint, jobs 1..3 must be kCancelled
  // without ever running.
  const std::string dir = scratchDir("stop");
  std::atomic<int> attempts{0};
  util::ThreadPool pool(1);
  util::FaultInjector no_faults;
  SweepOptions options;
  options.faults = &no_faults;
  options.checkpoint_dir = dir;
  options.stop_requested = [&attempts] { return attempts.load() >= 1; };
  options.on_attempt = [&attempts](std::size_t, int) { ++attempts; };
  const SweepResult result = runSweep(jobs_, pool, options);

  EXPECT_FALSE(result.report.allOk());
  EXPECT_EQ(result.report.outcomes[0].state, JobState::kSucceeded);
  ASSERT_TRUE(result.traces[0].has_value());
  EXPECT_TRUE(tracesBitIdentical(*result.traces[0], reference_[0]));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(result.report.outcomes[i].state, JobState::kCancelled)
        << "job " << i;
    EXPECT_EQ(result.report.outcomes[i].attempts, 0) << "job " << i;
    EXPECT_EQ(result.report.outcomes[i].status.code, StatusCode::kCancelled)
        << "job " << i;
    EXPECT_FALSE(result.traces[i].has_value());
  }
  EXPECT_EQ(attempts.load(), 1);

  // The interrupted run left a consistent checkpoint directory: a
  // resumed run restores job 0 and computes only the cancelled rest,
  // converging to the clean serial reference.
  SweepOptions resume;
  resume.faults = &no_faults;
  resume.checkpoint_dir = dir;
  resume.resume = true;
  const SweepResult resumed = runSweep(jobs_, pool, resume);
  EXPECT_TRUE(resumed.report.allOk()) << resumed.report.toText();
  EXPECT_EQ(resumed.report.count(JobState::kRestored), 1u);
  EXPECT_EQ(resumed.report.count(JobState::kSucceeded), 3u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(resumed.traces[i].has_value());
    EXPECT_TRUE(tracesBitIdentical(*resumed.traces[i], reference_[i]));
  }
  std::filesystem::remove_all(dir);
}

TEST_F(SweepTest, StopBetweenRetriesCancelsTheJob) {
  // Every attempt of every job throws; the stop flag flips after two
  // attempts, so job 0 is cancelled between retries rather than
  // exhausting its budget, and later jobs never start.
  util::FaultInjector faults;
  util::FaultPlan plan = allFaulty("job.exception");
  plan.fail_attempts = 1000;
  faults.arm(plan);
  std::atomic<int> attempts{0};
  util::ThreadPool pool(1);
  SweepOptions options;
  options.faults = &faults;
  options.max_retries = 5;
  options.backoff_ms = 0.1;
  options.stop_requested = [&attempts] { return attempts.load() >= 2; };
  options.on_attempt = [&attempts](std::size_t, int) { ++attempts; };
  const SweepResult result = runSweep(jobs_, pool, options);

  EXPECT_EQ(result.report.outcomes[0].state, JobState::kCancelled);
  EXPECT_EQ(result.report.outcomes[0].attempts, 2);  // not 6
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(result.report.outcomes[i].state, JobState::kCancelled);
    EXPECT_EQ(result.report.outcomes[i].attempts, 0);
  }
  EXPECT_EQ(attempts.load(), 2);
}

}  // namespace
}  // namespace tevot::dta
