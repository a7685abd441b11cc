#include "dta/sweep.hpp"

#include <chrono>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>

#include "dta/trace_io.hpp"

namespace tevot::dta {

namespace {

using util::Status;
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
     << count(JobState::kFailed) << " failed, "
     << count(JobState::kCancelled) << " cancelled";
  return os.str();
}

std::string SweepReport::toText() const {
  std::ostringstream os;
  os << "sweep report: " << summary() << "\n";
  os << "# index key state duration_ms status\n";
  for (const JobOutcome& outcome : outcomes) {
    os << outcome.index << " " << outcome.key << " "
       << jobStateName(outcome.state) << " ";
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

  SweepResult result;
  result.traces.resize(jobs.size());
  result.report.outcomes.resize(jobs.size());

  pool.parallelFor(jobs.size(), [&](std::size_t i) {
    const CharacterizeJob& job = jobs[i];
    JobOutcome& outcome = result.report.outcomes[i];
    outcome.index = i;
    outcome.key = sweepJobKey(job, i);

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
      } catch (...) {
        // Recomputed below; the job's own outcome is what is reported.
      }
    }

    if (options.on_attempt) options.on_attempt(i);
    const Clock::time_point start = Clock::now();
    try {
      faults->maybeThrow("job.exception", outcome.key);
      faults->maybeDelay("job.slow", outcome.key);
      DtaTrace trace = characterize(*job.netlist, job.delays(),
                                    *job.workload, job.options);
      if (!checkpoint_path.empty()) {
        writeTraceFileAtomic(checkpoint_path, trace, faults, outcome.key);
      }
      result.traces[i] = std::move(trace);
      outcome.state = JobState::kSucceeded;
    } catch (...) {
      outcome.state = JobState::kFailed;
      outcome.status = util::statusFromException(std::current_exception());
    }
    outcome.duration_ms = msSince(start);
  });

  return result;
}

}  // namespace tevot::dta
