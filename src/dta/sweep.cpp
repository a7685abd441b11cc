#include "dta/sweep.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "dta/trace_io.hpp"

namespace tevot::dta {

namespace {

using util::Status;
using util::StatusCode;
using util::StatusError;

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// True when a checkpoint holds `job`'s workload: the same name and,
/// as dta::characterize lays them out, sample i is cycle i + 1 of the
/// job's operand stream. A stream drawn from another seed has the same
/// name and length, so every operand pair is compared.
bool checkpointMatchesJob(const DtaTrace& trace, const CharacterizeJob& job) {
  const std::vector<OperandPair>& ops = job.workload->ops;
  if (trace.workload_name != job.workload->name ||
      trace.samples.size() + 1 != ops.size()) {
    return false;
  }
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    const DtaSample& s = trace.samples[i];
    if (s.a != ops[i + 1].a || s.b != ops[i + 1].b ||
        s.prev_a != ops[i].a || s.prev_b != ops[i].b) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* jobStateName(JobState state) {
  switch (state) {
    case JobState::kPending: return "pending";
    case JobState::kSucceeded: return "succeeded";
    case JobState::kRestored: return "restored";
    case JobState::kFailed: return "failed";
    case JobState::kDeadlineExceeded: return "deadline-exceeded";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::size_t SweepReport::count(JobState state) const {
  std::size_t n = 0;
  for (const JobOutcome& outcome : outcomes) {
    if (outcome.state == state) ++n;
  }
  return n;
}

bool SweepReport::allOk() const {
  for (const JobOutcome& outcome : outcomes) {
    if (outcome.state != JobState::kSucceeded &&
        outcome.state != JobState::kRestored) {
      return false;
    }
  }
  return true;
}

std::string SweepReport::summary() const {
  std::ostringstream os;
  os << outcomes.size() << " jobs: " << count(JobState::kSucceeded)
     << " ok, " << count(JobState::kRestored) << " restored, "
     << count(JobState::kFailed) + count(JobState::kDeadlineExceeded)
     << " failed, " << count(JobState::kCancelled) << " cancelled";
  std::size_t retried = 0;
  for (const JobOutcome& outcome : outcomes) {
    if (outcome.attempts > 1) ++retried;
  }
  os << ", " << retried << " retried";
  return os.str();
}

std::string SweepReport::toText() const {
  std::ostringstream os;
  os << "sweep report: " << summary() << "\n";
  os << "# index key state attempts duration_ms status\n";
  for (const JobOutcome& outcome : outcomes) {
    os << outcome.index << " " << outcome.key << " "
       << jobStateName(outcome.state) << " " << outcome.attempts << " ";
    os.precision(3);
    os << std::fixed << outcome.duration_ms;
    os.unsetf(std::ios::fixed);
    os << " " << outcome.status.toString() << "\n";
  }
  return os.str();
}

std::string sweepJobKey(const CharacterizeJob& job, std::size_t index) {
  if (!job.name.empty()) return job.name;
  return "job" + std::to_string(index);
}

SweepResult runSweep(std::span<const CharacterizeJob> jobs,
                     util::ThreadPool& pool, const SweepOptions& options) {
  std::set<std::string> keys;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CharacterizeJob& job = jobs[i];
    if (job.netlist == nullptr || !job.delays || job.workload == nullptr) {
      throw std::invalid_argument(
          "dta::runSweep: job missing netlist, delays or workload");
    }
    if (!options.checkpoint_dir.empty() &&
        !keys.insert(sweepJobKey(job, i)).second) {
      throw std::invalid_argument("dta::runSweep: duplicate job key '" +
                                  sweepJobKey(job, i) +
                                  "' with checkpointing enabled");
    }
  }
  if (!options.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint_dir, ec);
    if (ec) {
      throw StatusError(Status::ioError(
          "runSweep: cannot create checkpoint dir " +
          options.checkpoint_dir + ": " + ec.message()));
    }
  }

  util::FaultInjector* faults =
      options.faults != nullptr ? options.faults
                                : &util::FaultInjector::global();
  const int max_attempts = options.max_retries + 1;

  SweepResult result;
  result.traces.resize(jobs.size());
  result.report.outcomes.resize(jobs.size());
  std::atomic<bool> abort{false};

  pool.parallelFor(jobs.size(), [&](std::size_t i) {
    const CharacterizeJob& job = jobs[i];
    JobOutcome& outcome = result.report.outcomes[i];
    outcome.index = i;
    outcome.key = sweepJobKey(job, i);

    if (abort.load(std::memory_order_relaxed)) {
      outcome.state = JobState::kCancelled;
      outcome.status = Status::cancelled("sweep aborted (fail-fast)");
      return;
    }
    if (options.stop_requested && options.stop_requested()) {
      outcome.state = JobState::kCancelled;
      outcome.status = Status::cancelled("sweep interrupted (stop requested)");
      return;
    }

    const std::string checkpoint_path =
        options.checkpoint_dir.empty()
            ? std::string()
            : options.checkpoint_dir + "/" + outcome.key + ".trace";

    // Resume: restore a completed corner from its checkpoint. Any
    // failure here (missing file, injected io.open fault, truncation,
    // a checkpoint that does not match the job) falls through to
    // recomputation — at-least-once semantics.
    if (options.resume && !checkpoint_path.empty()) {
      try {
        DtaTrace restored =
            readTraceFile(checkpoint_path, faults, outcome.key);
        if (checkpointMatchesJob(restored, job)) {
          result.traces[i] = std::move(restored);
          outcome.state = JobState::kRestored;
          return;
        }
        outcome.status = Status::parseError(
            "checkpoint " + checkpoint_path + " does not match job");
      } catch (...) {
        outcome.status = util::statusFromException(std::current_exception());
      }
    }

    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      if (attempt > 1 && options.stop_requested &&
          options.stop_requested()) {
        // Don't burn the retry budget once a stop has been requested;
        // the first attempt's failure status is replaced by the
        // cancellation so the report says why the job gave up.
        outcome.status =
            Status::cancelled("sweep interrupted (stop requested)");
        break;
      }
      if (options.on_attempt) options.on_attempt(i, attempt);
      ++outcome.attempts;
      const Clock::time_point start = Clock::now();
      try {
        faults->maybeThrow("job.exception", outcome.key);
        faults->maybeDelay("job.slow", outcome.key);
        DtaTrace trace =
            characterize(*job.netlist, job.delays(), *job.workload,
                         job.options);
        const double elapsed = msSince(start);
        if (options.job_deadline_ms > 0.0 &&
            elapsed > options.job_deadline_ms) {
          std::ostringstream os;
          os << "job " << outcome.key << " took " << elapsed
             << " ms, deadline " << options.job_deadline_ms << " ms";
          throw StatusError(Status::deadlineExceeded(os.str()));
        }
        if (!checkpoint_path.empty()) {
          writeTraceFileAtomic(checkpoint_path, trace, faults, outcome.key);
        }
        outcome.duration_ms += elapsed;
        result.traces[i] = std::move(trace);
        outcome.state = JobState::kSucceeded;
        outcome.status = Status::okStatus();
        return;
      } catch (...) {
        outcome.duration_ms += msSince(start);
        outcome.status = util::statusFromException(std::current_exception());
      }
      if (attempt < max_attempts && options.backoff_ms > 0.0) {
        const double backoff =
            options.backoff_ms * static_cast<double>(1 << (attempt - 1));
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long>(backoff * 1000.0)));
      }
    }

    outcome.state = outcome.status.code == StatusCode::kDeadlineExceeded
                        ? JobState::kDeadlineExceeded
                    : outcome.status.code == StatusCode::kCancelled
                        ? JobState::kCancelled
                        : JobState::kFailed;
    if (outcome.state != JobState::kCancelled && options.fail_fast) {
      abort.store(true, std::memory_order_relaxed);
    }
  });

  return result;
}

}  // namespace tevot::dta
