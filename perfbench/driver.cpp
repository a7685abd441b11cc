// tevot_perfbench: one run of one benchmark workload over both TEVoT
// end-to-end paths, timed from outside through public calls only.
//
//   offline  characterize (event sim + DTA) -> train -> flat compile
//            -> held-out evaluation -> serving certification
//   online   LineClient -> [fleet::Router ->] serve::Server -> predict
//
// Usage:
//   tevot_perfbench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> --work-dir <dir> [--record <file>]
//                   [--rev <text>] [--inject-mismatch]
//
// The last stdout line is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/README.md documents every metric, workload
// and check. Exit status: 0 when every checked operation passed, 1
// when one failed (the result is still printed), 2 on a usage error
// or an aborted run (nothing printed).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/fu.hpp"
#include "dta/dta.hpp"
#include "dta/workload.hpp"
#include "fleet/router.hpp"
#include "ml/flat_forest.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tevot/baselines.hpp"
#include "tevot/evaluate.hpp"
#include "tevot/model.hpp"
#include "tevot/operating_grid.hpp"
#include "tevot/pipeline.hpp"
#include "util/fault_injection.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "verify/model_rules.hpp"

#ifndef TEVOT_PERFBENCH_COMPILER
#define TEVOT_PERFBENCH_COMPILER "unknown"
#endif
#ifndef TEVOT_PERFBENCH_BUILD_TYPE
#define TEVOT_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tevot;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workloads (README.md says why each exists)
// ---------------------------------------------------------------------

struct WorkloadSpec {
  std::string_view name;
  circuits::FuKind fu;
  int grid_v;  ///< Table I subset: OperatingGrid::subsampled(grid_v, grid_t)
  int grid_t;
  std::size_t train_cycles;  ///< per corner
  std::size_t test_cycles;   ///< per corner, held out
  int n_trees;
  bool routed;  ///< serve through a fleet::Router over two shards
  /// > 0: serve a separate small model trained in setup from this many
  /// cycles at the first and last corner; 0: serve the offline model.
  std::size_t serve_model_cycles;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"offline_fp_add", circuits::FuKind::kFpAdd, 3, 2, 500, 200, 10, false,
     0},
    {"offline_int_add", circuits::FuKind::kIntAdd, 3, 2, 2000, 500, 10,
     false, 0},
    {"serve_routed", circuits::FuKind::kIntAdd, 2, 2, 300, 200, 10, true,
     400},
};

/// Rounds per run (setup, offline phase, serve phase each); metrics are
/// medians over rounds.
constexpr int kRounds = 9;
constexpr std::size_t kBatchTuples = 64;
constexpr std::size_t kPoolBatches = 32;
/// Response lines kept per connection per slice for the off-the-clock
/// bit-identity check; later lines of a long slice go unchecked, which
/// keeps memory (and peak_rss_mb) independent of serving speed.
constexpr std::size_t kCheckCapLines = 1 << 15;

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Process CPU seconds (user + system) summed over every thread.
double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t availableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return util::ThreadPool::hardwareThreads();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// One diagnostic line on stderr: the repetitions behind a median.
void printSeries(const char* what, const std::vector<double>& values) {
  std::fprintf(stderr, "perfbench: %s:", what);
  for (const double v : values) std::fprintf(stderr, " %.6g", v);
  std::fprintf(stderr, "\n");
}

std::string jsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("non-finite metric value");
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------------
// Tracing: spans kept in memory around each public call and written to
// the run record at exit. Only the main thread records; a span carries
// wall and process CPU time, so one around a pool call shows its
// core-seconds too.
// ---------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int round = 0;  ///< the run round it belongs to
    double start_s = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double count = 0.0;  ///< work items the span covered
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool recording() const { return enabled_ && recording_; }
  void setRecording(bool on) { recording_ = on; }
  void setRound(int round) { round_ = round; }

  int begin(std::string_view name, double count) {
    Span span;
    span.name = std::string(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.round = round_;
    span.start_s = secondsBetween(origin_, Clock::now());
    span.cpu_s = processCpuSeconds();
    span.count = count;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void end(int index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.wall_s = secondsBetween(origin_, Clock::now()) - span.start_s;
    span.cpu_s = processCpuSeconds() - span.cpu_s;
    open_.pop_back();
  }

  void setCount(int index, double count) {
    spans_[static_cast<std::size_t>(index)].count = count;
  }

  /// Sums over the spans named `name` in round `round`.
  double wall(std::string_view name, int round) const {
    return sum(name, round, &Span::wall_s);
  }
  double cpu(std::string_view name, int round) const {
    return sum(name, round, &Span::cpu_s);
  }
  double count(std::string_view name, int round) const {
    return sum(name, round, &Span::count);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double sum(std::string_view name, int round, double Span::*field) const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.round == round && span.name == name) total += span.*field;
    }
    return total;
  }

  bool enabled_;
  bool recording_ = true;
  int round_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, double count = 0.0)
      : tracer_(tracer),
        index_(tracer.recording() ? tracer.begin(name, count) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void setCount(double count) {
    if (index_ >= 0) tracer_.setCount(index_, count);
  }

 private:
  Tracer& tracer_;
  int index_;
};

// ---------------------------------------------------------------------
// Checked operations (ok_frac)
// ---------------------------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool inject_mismatch = false;       ///< corrupt the first checked delay
  std::vector<std::string> failures;  ///< the first few, for stderr

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

// ---------------------------------------------------------------------
// Setup: netlist, workloads, corner annotation
// ---------------------------------------------------------------------

struct Inputs {
  std::unique_ptr<core::FuContext> context;
  std::vector<liberty::Corner> corners;
  dta::Workload train;
  dta::Workload test;
};

Inputs buildInputs(const WorkloadSpec& spec, std::uint64_t seed,
                   Tracer& tracer) {
  Inputs in;
  {
    ScopedSpan span(tracer, "setup.netlist");
    in.context = std::make_unique<core::FuContext>(spec.fu);
  }
  in.corners =
      core::OperatingGrid::paper().subsampled(spec.grid_v, spec.grid_t);
  {
    ScopedSpan span(tracer, "setup.workloads");
    util::Rng rng(seed);
    // n + 1 operand pairs yield n characterized cycles.
    in.train =
        dta::randomWorkloadFor(spec.fu, spec.train_cycles + 1, rng, "train");
    in.test =
        dta::randomWorkloadFor(spec.fu, spec.test_cycles + 1, rng, "test");
  }
  {
    ScopedSpan span(tracer, "liberty.annotate",
                    static_cast<double>(in.corners.size()));
    for (const liberty::Corner& corner : in.corners) {
      in.context->delaysAt(corner);
    }
  }
  return in;
}

// ---------------------------------------------------------------------
// Offline phase: characterize -> train -> compile -> evaluate -> certify
// ---------------------------------------------------------------------

struct OfflineRun {
  double wall_s = 0.0;
  double core_s = 0.0;
  std::vector<dta::DtaTrace> train;
  std::vector<dta::DtaTrace> test;
  core::TevotModel model;
  std::size_t node_count = 0;
  std::size_t train_rows = 0;
  std::size_t eval_predictions = 0;
  double accuracy = 0.0;
  double mae_ps = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t digest = 0;
  util::Status certified = util::Status::okStatus();
};

/// FNV-1a over what characterization decides: per-trace event counts
/// and each cycle's delay bits, settled word and toggle count.
std::uint64_t traceDigest(const OfflineRun& run) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const auto* traces : {&run.train, &run.test}) {
    for (const dta::DtaTrace& trace : *traces) {
      mix(trace.sim_events);
      for (const dta::DtaSample& sample : trace.samples) {
        mix(std::bit_cast<std::uint64_t>(sample.delay_ps));
        mix(sample.settled_word);
        mix(sample.toggles.size());
      }
    }
  }
  return h;
}

std::unique_ptr<OfflineRun> runOffline(const WorkloadSpec& spec,
                                       Inputs& in, std::uint64_t seed,
                                       util::ThreadPool& pool,
                                       Tracer& tracer) {
  auto run = std::make_unique<OfflineRun>();
  const double cpu0 = processCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan offline(tracer, "offline");
    std::vector<dta::CharacterizeJob> jobs;
    for (const dta::Workload* workload : {&in.train, &in.test}) {
      for (const liberty::Corner& corner : in.corners) {
        jobs.push_back(in.context->characterizeJob(corner, *workload));
      }
    }
    std::vector<dta::DtaTrace> traces;
    {
      ScopedSpan span(tracer, "dta.characterizeAll");
      traces = dta::characterizeAll(jobs, pool);
      double cycles = 0.0;
      for (const dta::DtaTrace& trace : traces) {
        run->sim_events += trace.sim_events;
        cycles += static_cast<double>(trace.samples.size());
      }
      span.setCount(cycles);
    }
    const auto split = traces.begin() + static_cast<std::ptrdiff_t>(
                                            in.corners.size());
    run->train.assign(std::make_move_iterator(traces.begin()),
                      std::make_move_iterator(split));
    run->test.assign(std::make_move_iterator(split),
                     std::make_move_iterator(traces.end()));
    for (const dta::DtaTrace& trace : run->train) {
      run->train_rows += trace.samples.size();
    }

    core::TevotConfig config;
    config.forest.n_trees = spec.n_trees;
    run->model = core::TevotModel(config);
    {
      ScopedSpan span(tracer, "ml.train",
                      static_cast<double>(run->train_rows));
      util::Rng rng(seed ^ 0x7e7070aa55ULL);
      run->model.train(run->train, rng, &pool);
    }
    {
      ScopedSpan span(tracer, "ml.compile");
      const ml::FlatForest flat =
          ml::FlatForest::fromRegressor(run->model.forest());
      run->node_count = flat.nodeCount();
      span.setCount(static_cast<double>(run->node_count));
    }
    {
      // Accuracy at the paper's three clock speedups from each corner's
      // training base clock, plus the delay MAE, on held-out cycles.
      ScopedSpan span(tracer, "tevot.evaluate");
      core::TevotErrorModel error_model(run->model);
      std::vector<core::EvalOutcome> outcomes;
      double abs_error_sum = 0.0;
      std::size_t samples = 0;
      for (std::size_t c = 0; c < run->test.size(); ++c) {
        const dta::DtaTrace& test = run->test[c];
        const double base_clock = run->train[c].baseClockPs();
        for (const double speedup : dta::kClockSpeedups) {
          outcomes.push_back(core::evaluateOnTrace(
              error_model, test, dta::speedupClockPs(base_clock, speedup)));
        }
        for (const dta::DtaSample& s : test.samples) {
          abs_error_sum += std::fabs(
              run->model.predictDelay(s.a, s.b, s.prev_a, s.prev_b,
                                      test.corner) -
              s.delay_ps);
        }
        samples += test.samples.size();
      }
      run->accuracy = core::mergeOutcomes(outcomes).accuracy();
      run->mae_ps = abs_error_sum / static_cast<double>(samples);
      run->eval_predictions =
          samples * (std::size(dta::kClockSpeedups) + 1);
      span.setCount(static_cast<double>(run->eval_predictions));
    }
    {
      ScopedSpan span(tracer, "verify.certify");
      run->certified = verify::certifyModelForServing(run->model);
    }
  }
  run->wall_s = secondsBetween(t0, Clock::now());
  run->core_s = processCpuSeconds() - cpu0;
  run->digest = traceDigest(*run);
  return run;
}

/// The DTA oracle: no simulated cycle may outlast the STA critical
/// path at its corner (STA is a sound upper bound on dynamic delay).
void checkTraces(const OfflineRun& run, core::FuContext& context,
                 Checks& checks) {
  for (const auto* traces : {&run.train, &run.test}) {
    for (const dta::DtaTrace& trace : *traces) {
      const double sta = context.staCriticalPathPs(trace.corner);
      const double dta_max = trace.maxDelayPs();
      char what[160];
      std::snprintf(what, sizeof(what),
                    "DTA max %.6f ps > STA %.6f ps at %.2f V %.0f C",
                    dta_max, sta, trace.corner.voltage,
                    trace.corner.temperature);
      checks.record(dta_max <= sta, what);
    }
  }
}

// ---------------------------------------------------------------------
// Serving: query pool, stack, timed slices
// ---------------------------------------------------------------------

/// Pre-rendered requests plus the in-process answers they must get.
/// Single-predict request j is tuple j % kBatchTuples of batch
/// j / kBatchTuples; batch k is batches[k % kPoolBatches].
struct QueryPool {
  struct Batch {
    double tclk_ps = 0.0;
    std::vector<double> expected;      ///< in-process predictDelay
    std::string line;                  ///< the predictN request
    std::vector<std::string> singles;  ///< one predict per tuple
  };
  std::vector<Batch> batches;
  std::vector<core::DelayQuery> queries;  ///< every tuple, batch-major

  const Batch& batch(std::uint64_t k) const {
    return batches[k % batches.size()];
  }
};

QueryPool buildQueryPool(const OfflineRun& offline,
                         const core::TevotModel& model,
                         const std::string& fu) {
  QueryPool pool;
  const std::size_t corners = offline.test.size();
  for (std::size_t k = 0; k < kPoolBatches; ++k) {
    const dta::DtaTrace& trace = offline.test[k % corners];
    QueryPool::Batch batch;
    batch.tclk_ps =
        dta::speedupClockPs(offline.train[k % corners].baseClockPs(), 0.10);
    std::vector<serve::BatchOperand> operands;
    const std::size_t offset = (k / corners) * kBatchTuples;
    for (std::size_t i = 0; i < kBatchTuples; ++i) {
      const dta::DtaSample& s =
          trace.samples[(offset + i) % trace.samples.size()];
      operands.push_back({s.a, s.b, s.prev_a, s.prev_b});
      pool.queries.push_back({s.a, s.b, s.prev_a, s.prev_b, trace.corner});
      batch.expected.push_back(
          model.predictDelay(s.a, s.b, s.prev_a, s.prev_b, trace.corner));
      char line[256];
      std::snprintf(line, sizeof(line), "predict %s %a %a %a %u %u %u %u",
                    fu.c_str(), trace.corner.voltage,
                    trace.corner.temperature, batch.tclk_ps, s.a, s.b,
                    s.prev_a, s.prev_b);
      batch.singles.emplace_back(line);
    }
    batch.line =
        serve::formatBatchRequest(fu, trace.corner.voltage,
                                  trace.corner.temperature, batch.tclk_ps,
                                  operands);
    pool.batches.push_back(std::move(batch));
  }
  return pool;
}

/// Response lines of one connection over one slice, checked against
/// the pool after the slice, off the clock.
struct Recording {
  bool batched = false;
  std::uint64_t first = 0;  ///< request (or batch) index of lines[0]
  std::vector<std::string> lines;

  void reset(bool is_batched, std::uint64_t first_index) {
    batched = is_batched;
    first = first_index;
    lines.clear();
  }
};

void checkRecording(const Recording& rec, const QueryPool& pool,
                    Checks& checks) {
  for (std::size_t i = 0; i < rec.lines.size(); ++i) {
    const std::uint64_t request =
        rec.batched ? (rec.first + i / kBatchTuples) * kBatchTuples +
                          i % kBatchTuples
                    : rec.first + i;
    const QueryPool::Batch& batch = pool.batch(request / kBatchTuples);
    const double expected = batch.expected[request % kBatchTuples];
    serve::Response response;
    bool ok = serve::parseResponse(rec.lines[i], &response) &&
              response.status == serve::ResponseStatus::kOk;
    if (ok && checks.inject_mismatch) {
      response.delay_ps = std::bit_cast<double>(
          std::bit_cast<std::uint64_t>(response.delay_ps) ^ 1U);
      checks.inject_mismatch = false;
    }
    ok = ok &&
         std::bit_cast<std::uint64_t>(response.delay_ps) ==
             std::bit_cast<std::uint64_t>(expected) &&
         response.timing_error == (expected > batch.tclk_ps);
    checks.record(ok, ok ? std::string()
                         : "response '" + rec.lines[i] +
                               "' != in-process " + std::to_string(expected));
  }
}

void sendOrThrow(serve::LineClient& client, const std::string& line) {
  if (!client.sendLine(line)) throw std::runtime_error("serve: send failed");
}

std::string readOrThrow(serve::LineClient& client) {
  std::optional<std::string> line = client.readLine();
  if (!line.has_value()) throw std::runtime_error("serve: connection lost");
  return std::move(*line);
}

/// Closed-loop single `predict` on one connection; returns the RTTs
/// [us] of requests sent after the warm-up (the first tenth).
std::vector<double> runSingleSlice(serve::LineClient& client,
                                   const QueryPool& pool, double seconds,
                                   std::uint64_t* next, Recording* rec) {
  rec->reset(false, *next);
  std::vector<double> rtts;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point warm_end = after(t0, 0.1 * seconds);
  const Clock::time_point end = after(t0, seconds);
  for (;;) {
    const Clock::time_point sent = Clock::now();
    if (sent >= end) break;
    const std::uint64_t request = (*next)++;
    sendOrThrow(client, pool.batch(request / kBatchTuples)
                            .singles[request % kBatchTuples]);
    std::string line = readOrThrow(client);
    const Clock::time_point done = Clock::now();
    if (sent >= warm_end) rtts.push_back(secondsBetween(sent, done) * 1e6);
    if (rec->lines.size() < kCheckCapLines) {
      rec->lines.push_back(std::move(line));
    }
  }
  return rtts;
}

/// Sends predictN batch `batch` and reads its kBatchTuples lines; they
/// are kept while the recording is under the cap (whole batches only,
/// so the kept lines stay a contiguous prefix).
void roundTripBatch(serve::LineClient& client, const QueryPool& pool,
                    std::uint64_t batch, Recording* rec) {
  sendOrThrow(client, pool.batch(batch).line);
  const bool keep = rec->lines.size() + kBatchTuples <= kCheckCapLines;
  for (std::size_t i = 0; i < kBatchTuples; ++i) {
    std::string line = readOrThrow(client);
    if (keep) rec->lines.push_back(std::move(line));
  }
}

/// Closed-loop 64-tuple `predictN` on one connection; RTTs [us] after
/// the warm-up.
std::vector<double> runBatchSlice(serve::LineClient& client,
                                  const QueryPool& pool, double seconds,
                                  std::uint64_t* next, Recording* rec) {
  rec->reset(true, *next);
  std::vector<double> rtts;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point warm_end = after(t0, 0.1 * seconds);
  const Clock::time_point end = after(t0, seconds);
  for (;;) {
    const Clock::time_point sent = Clock::now();
    if (sent >= end) break;
    roundTripBatch(client, pool, (*next)++, rec);
    const Clock::time_point done = Clock::now();
    if (sent >= warm_end) rtts.push_back(secondsBetween(sent, done) * 1e6);
  }
  return rtts;
}

/// Closed-loop predictN on every client at once, each from its own
/// stretch of the pool; predictions per second completed between the
/// end of the warm-up and the end of the slice.
double runThroughputSlice(std::span<serve::LineClient* const> clients,
                          const QueryPool& pool, double seconds,
                          std::vector<Recording>* recs) {
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point warm_end = after(t0, 0.1 * seconds);
  const Clock::time_point end = after(t0, seconds);
  recs->assign(clients.size(), Recording{});
  std::vector<std::uint64_t> counted(clients.size(), 0);
  std::vector<std::string> errors(clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    (*recs)[c].reset(true, c * kPoolBatches / clients.size());
    threads.emplace_back([&, c] {
      try {
        Recording& rec = (*recs)[c];
        for (std::uint64_t batch = rec.first; Clock::now() < end; ++batch) {
          roundTripBatch(*clients[c], pool, batch, &rec);
          const Clock::time_point done = Clock::now();
          if (done >= warm_end && done <= end) ++counted[c];
        }
      } catch (const std::exception& error) {
        errors[c] = error.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error(error);
  }
  std::uint64_t batches = 0;
  for (const std::uint64_t n : counted) batches += n;
  return static_cast<double>(batches * kBatchTuples) /
         secondsBetween(warm_end, end);
}

/// The latency samples `later` holds beyond `earlier`.
util::LatencyHistogram histogramDelta(const util::LatencyHistogram& earlier,
                                      const util::LatencyHistogram& later) {
  std::vector<std::pair<std::size_t, std::size_t>> buckets;
  for (std::size_t i = 0; i < util::LatencyHistogram::kBuckets; ++i) {
    const std::size_t gained = later.bucketCount(i) - earlier.bucketCount(i);
    if (gained > 0) buckets.emplace_back(i, gained);
  }
  if (buckets.empty()) return {};
  return util::LatencyHistogram::fromBuckets(
      buckets, util::LatencyHistogram::bucketLowMs(buckets.front().first),
      util::LatencyHistogram::bucketHighMs(buckets.back().first));
}

/// Servers, optional router and client connections of one serve setup.
class ServeStack {
 public:
  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() { stop(); }

  /// Starts `shards` servers over `model_dir`, plus a router over them
  /// when `routed` or `probe`, then connects two front clients (the
  /// router when routed, else the server) and, with `probe`, a client
  /// on the other path (shard 0 when routed, else the router).
  void start(const std::string& model_dir, std::size_t shards, bool routed,
             bool probe, Tracer& tracer) {
    routed_ = routed;
    for (std::size_t i = 0; i < shards; ++i) {
      ScopedSpan span(tracer, "setup.server_start");
      serve::ServerOptions options;
      options.model_dir = model_dir;
      options.faults = &quiet_;
      servers_.push_back(std::make_unique<serve::Server>(options));
      const util::Status started = servers_.back()->start();
      if (!started.ok()) {
        throw std::runtime_error("Server::start: " + started.message);
      }
    }
    ScopedSpan span(tracer, "setup.router_start_connect");
    if (routed || probe) {
      std::vector<fleet::ShardEndpoint> endpoints;
      for (const auto& server : servers_) {
        endpoints.push_back({server->port(), {}});
      }
      router_ = std::make_unique<fleet::Router>(fleet::RouterOptions{},
                                                std::move(endpoints));
      const util::Status started = router_->start();
      if (!started.ok()) {
        throw std::runtime_error("Router::start: " + started.message);
      }
      // start() probes every shard synchronously, so there is nothing
      // to wait for; a shard out of rotation now is a failed setup.
      for (std::size_t i = 0; i < router_->shardCount(); ++i) {
        if (!router_->shardEligible(i)) {
          throw std::runtime_error("router shard not eligible after start");
        }
      }
    }
    const int server_port = servers_.front()->port();
    for (serve::LineClient& client : front_) {
      connect(client, routed ? router_->port() : server_port);
    }
    if (probe) connect(probe_, routed ? server_port : router_->port());
  }

  void stop() {
    for (serve::LineClient& client : front_) client.close();
    probe_.close();
    if (router_) router_->drainAndStop();
    for (const auto& server : servers_) server->drainAndStop();
  }

  serve::LineClient& front(std::size_t i) { return front_[i]; }
  serve::LineClient& probe() { return probe_; }
  bool routed() const { return routed_; }
  fleet::Router* router() { return router_.get(); }
  const std::vector<std::unique_ptr<serve::Server>>& servers() const {
    return servers_;
  }

  /// Every shard's latency histogram, merged bucket-exactly.
  util::LatencyHistogram serverHistogram() const {
    util::LatencyHistogram merged;
    for (const auto& server : servers_) merged.merge(server->stats().latency);
    return merged;
  }

  util::LatencyHistogram routerHistogram() const {
    return router_ ? router_->stats().latency : util::LatencyHistogram{};
  }

 private:
  static void connect(serve::LineClient& client, int port) {
    const util::Status connected = client.connectTo(port);
    if (!connected.ok()) {
      throw std::runtime_error("connect: " + connected.message);
    }
  }

  util::FaultInjector quiet_;  ///< never inherit TEVOT_FAULTS
  bool routed_ = false;
  std::vector<std::unique_ptr<serve::Server>> servers_;
  std::unique_ptr<fleet::Router> router_;
  serve::LineClient front_[2];
  serve::LineClient probe_;
};

/// The small model serve_routed serves, trained during setup from the
/// first and last corner of the workload's grid.
core::TevotModel trainServeModel(const WorkloadSpec& spec, Inputs& in,
                                 std::uint64_t seed,
                                 util::ThreadPool& pool) {
  util::Rng rng(seed ^ 0x5e7e5e7eULL);
  const dta::Workload workload =
      dta::randomWorkloadFor(spec.fu, spec.serve_model_cycles + 1, rng);
  std::vector<dta::CharacterizeJob> jobs;
  for (const liberty::Corner& corner :
       {in.corners.front(), in.corners.back()}) {
    jobs.push_back(in.context->characterizeJob(corner, workload));
  }
  const std::vector<dta::DtaTrace> traces = dta::characterizeAll(jobs, pool);
  core::TevotConfig config;
  config.forest.n_trees = spec.n_trees;
  core::TevotModel model(config);
  model.train(traces, rng, &pool);
  return model;
}

/// Serve figures of every round of a run; metrics are medians over
/// rounds (p99 over the pooled samples).
struct ServeRounds {
  std::vector<double> p50s, p90s, batch_p50s, rates, probe_p50s, pooled;
  util::LatencyHistogram server_latency;  ///< front single-predict slices
  util::LatencyHistogram router_latency;  ///< single predicts via router
  std::uint64_t next_single = 0, next_batch = 0, next_probe = 0;
};

/// One round's serve phase: single-predict latency, batch latency,
/// throughput and, traced, the probe path, in `round_s` seconds.
void runServeRound(ServeStack& stack, const QueryPool& pool, double round_s,
                   bool trace, Tracer& tracer, Checks& checks,
                   ServeRounds& out) {
  const double latency_s = round_s * (trace ? 0.26 : 0.30);
  const double batch_s = round_s * (trace ? 0.24 : 0.30);
  const double throughput_s = round_s * (trace ? 0.32 : 0.40);
  const double probe_s = round_s * 0.18;
  Recording rec;
  {
    const util::LatencyHistogram server_before = stack.serverHistogram();
    const util::LatencyHistogram router_before = stack.routerHistogram();
    std::vector<double> rtts;
    {
      ScopedSpan span(tracer, "serve.latency");
      rtts = runSingleSlice(stack.front(0), pool, latency_s,
                            &out.next_single, &rec);
      span.setCount(static_cast<double>(rtts.size()));
    }
    if (trace) {
      out.server_latency.merge(
          histogramDelta(server_before, stack.serverHistogram()));
      if (stack.routed()) {
        out.router_latency.merge(
            histogramDelta(router_before, stack.routerHistogram()));
      }
    }
    checkRecording(rec, pool, checks);
    out.p50s.push_back(quantile(rtts, 0.50));
    out.p90s.push_back(quantile(rtts, 0.90));
    out.pooled.insert(out.pooled.end(), rtts.begin(), rtts.end());
  }
  {
    std::vector<double> rtts;
    {
      ScopedSpan span(tracer, "serve.batch");
      rtts = runBatchSlice(stack.front(0), pool, batch_s, &out.next_batch,
                           &rec);
      span.setCount(static_cast<double>(rtts.size()));
    }
    checkRecording(rec, pool, checks);
    out.batch_p50s.push_back(quantile(rtts, 0.50));
  }
  {
    serve::LineClient* const clients[] = {&stack.front(0), &stack.front(1)};
    std::vector<Recording> recs;
    {
      ScopedSpan span(tracer, "serve.throughput");
      out.rates.push_back(
          runThroughputSlice(clients, pool, throughput_s, &recs));
    }
    for (const Recording& r : recs) checkRecording(r, pool, checks);
  }
  if (trace) {
    const util::LatencyHistogram router_before = stack.routerHistogram();
    std::vector<double> rtts;
    {
      ScopedSpan span(tracer, "serve.probe");
      rtts = runSingleSlice(stack.probe(), pool, probe_s, &out.next_probe,
                            &rec);
    }
    if (!stack.routed()) {
      out.router_latency.merge(
          histogramDelta(router_before, stack.routerHistogram()));
    }
    checkRecording(rec, pool, checks);
    out.probe_p50s.push_back(quantile(rtts, 0.50));
  }
}

void checkAccounting(const serve::MetricsSnapshot& stats,
                     const std::string& who, Checks& checks) {
  checks.record(
      stats.requests == stats.ok + stats.shed + stats.deadline + stats.errors,
      who + " accounting: requests != ok+shed+deadline+errors");
}

// ---------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  std::string record;
  std::string rev = "unknown";
  bool inject_mismatch = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string machineJson(const Options& opt, std::size_t jobs) {
  std::string out = "{\"nproc\": " + std::to_string(availableCpus());
  out += ", \"jobs\": " + std::to_string(jobs);
  out += ", \"compiler\": " + jsonString(TEVOT_PERFBENCH_COMPILER);
  out += ", \"build_type\": " + jsonString(TEVOT_PERFBENCH_BUILD_TYPE);
  out += ", \"git_rev\": " + jsonString(opt.rev);
  out += ", \"workload\": " + jsonString(opt.workload);
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += ", \"seconds\": " + jsonNumber(opt.seconds);
  out += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
  return out + "}";
}

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += jsonString(metrics[i].name) +
           ": {\"value\": " + jsonNumber(metrics[i].value) +
           ", \"unit\": " + jsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void writeRecord(const std::string& path, const std::string& machine,
                 const std::string& result, const Tracer& tracer) {
  std::ofstream os(path);
  os << "{\"machine\": " << machine << ",\n \"result\": " << result
     << ",\n \"spans\": [";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    os << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i
       << ", \"name\": " << jsonString(s.name) << ", \"parent\": " << s.parent
       << ", \"round\": " << s.round
       << ", \"start_s\": " << jsonNumber(s.start_s)
       << ", \"wall_s\": " << jsonNumber(s.wall_s)
       << ", \"cpu_s\": " << jsonNumber(s.cpu_s)
       << ", \"count\": " << jsonNumber(s.count) << "}";
  }
  os << "\n ]}\n";
  os.flush();
  if (!os) throw std::runtime_error("cannot write record " + path);
}

int runBenchmark(const Options& opt) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == opt.workload) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  util::setLogLevel(util::LogLevel::kWarn);
  // Half the cores: the offline phase must not saturate a shared box.
  const std::size_t jobs = std::max<std::size_t>(1, availableCpus() / 2);
  util::ThreadPool pool(jobs);
  Tracer tracer(opt.trace);
  Checks checks;
  checks.inject_mismatch = opt.inject_mismatch;
  const std::string machine = machineJson(opt, jobs);
  std::printf("perfbench machine: %s\n", machine.c_str());
  const std::filesystem::path model_dir =
      std::filesystem::path(opt.work_dir) / "models";
  std::filesystem::create_directories(model_dir);
  const std::string fu(circuits::fuSlug(spec->fu));

  // The run is kRounds identical rounds of setup -> offline -> setup of
  // the serve stack -> serve phase; every metric is a median over
  // rounds, so a disturbance shorter than a few rounds cannot move it.
  // A traced run records spans in rounds 2 and 4 only; round 0 warms up
  // and rounds 1 and 3 are the untraced reference for the overhead.
  std::vector<double> setup_s, walls, cores, traced_walls, untraced_walls;
  ServeRounds serve;
  Inputs in;
  std::unique_ptr<OfflineRun> offline;
  core::TevotModel serve_model;
  double serve_round_s = 0.0;
  double worker_p50_us = 0.0;
  double batch_ceiling = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    const bool traced = opt.trace && round > 0 && round % 2 == 0;
    tracer.setRound(round);
    tracer.setRecording(traced);
    const Clock::time_point round_start = Clock::now();

    // Setup, part 1: netlist, workloads, corner annotation.
    Clock::time_point t0 = Clock::now();
    in = buildInputs(*spec, opt.seed, tracer);
    double setup = secondsBetween(t0, Clock::now());

    // Offline phase; every round must reproduce it exactly.
    std::unique_ptr<OfflineRun> run =
        runOffline(*spec, in, opt.seed, pool, tracer);
    if (!run->certified.ok()) {
      throw std::runtime_error("certification failed: " +
                               run->certified.message);
    }
    if (offline && (run->digest != offline->digest ||
                    run->node_count != offline->node_count ||
                    run->accuracy != offline->accuracy ||
                    run->mae_ps != offline->mae_ps)) {
      throw std::runtime_error("offline rounds disagree");
    }
    walls.push_back(run->wall_s);
    cores.push_back(run->core_s);
    if (round > 0) {
      (traced ? traced_walls : untraced_walls).push_back(run->wall_s);
    }
    offline = std::move(run);
    checkTraces(*offline, *in.context, checks);

    // Setup, part 2: model train (serve_routed) and save, Server::start,
    // Router::start, connect.
    ServeStack stack;
    const core::TevotModel* served = &offline->model;
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "setup.serve");
      if (spec->serve_model_cycles > 0) {
        ScopedSpan train_span(tracer, "setup.train_serve_model");
        serve_model = trainServeModel(*spec, in, opt.seed, pool);
        served = &serve_model;
      }
      {
        ScopedSpan save_span(tracer, "setup.save_model");
        served->save((model_dir / (fu + ".model")).string());
      }
      stack.start(model_dir.string(), spec->routed ? 2 : 1, spec->routed,
                  opt.trace, tracer);
    }
    setup += secondsBetween(t0, Clock::now());
    setup_s.push_back(setup);
    const QueryPool queries = buildQueryPool(*offline, *served, fu);

    // Serve phase: round 0 fixes its length, so that all rounds fill
    // the run's budget, but at least half of it goes to serving.
    if (round == 0) {
      const double share = opt.seconds / kRounds;
      serve_round_s = std::max(share - secondsBetween(round_start,
                                                      Clock::now()),
                               0.5 * share);
    }
    runServeRound(stack, queries, serve_round_s, opt.trace, tracer, checks,
                  serve);
    for (std::size_t i = 0; i < stack.servers().size(); ++i) {
      checkAccounting(stack.servers()[i]->stats(),
                      "shard " + std::to_string(i), checks);
    }
    if (stack.router() != nullptr) {
      checkAccounting(stack.router()->stats(), "router", checks);
      worker_p50_us = stack.router()->workerStats().p50_ms * 1e3;
    }

    // In-process batch ceiling (traced runs), one thread.
    if (opt.trace && round == kRounds - 1) {
      ScopedSpan span(tracer, "tevot.predictDelayBatch");
      std::vector<double> out(kBatchTuples);
      std::uint64_t predictions = 0;
      t0 = Clock::now();
      double elapsed = 0.0;
      for (std::size_t k = 0; elapsed < 0.3; ++k) {
        served->predictDelayBatch(
            std::span(queries.queries)
                .subspan((k % kPoolBatches) * kBatchTuples, kBatchTuples),
            out);
        predictions += kBatchTuples;
        elapsed = secondsBetween(t0, Clock::now());
      }
      batch_ceiling = static_cast<double>(predictions) / elapsed;
      span.setCount(static_cast<double>(predictions));
    }
  }
  std::filesystem::remove_all(model_dir);
  printSeries("setup_s per round", setup_s);
  printSeries("offline_wall_s per round", walls);
  printSeries("offline_core_s per round", cores);
  printSeries("rtt_p50_us per round", serve.p50s);
  printSeries("batch_rtt_p50_us per round", serve.batch_p50s);
  printSeries("predictions_per_s per round", serve.rates);
  if (opt.trace) printSeries("probe rtt_p50_us per round", serve.probe_p50s);

  const double ok_frac =
      static_cast<double>(checks.attempted - checks.failed) /
      static_cast<double>(std::max<std::uint64_t>(1, checks.attempted));
  std::vector<Metric> metrics;
  const double rtt_p50_us = median(serve.p50s);
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"offline_wall_s", median(walls), "s"},
        {"offline_core_s", median(cores), "s"},
        {"heldout_accuracy", offline->accuracy, "frac"},
        {"delay_mae_ps", offline->mae_ps, "ps"},
        {"rtt_p50_us", rtt_p50_us, "us"},
        {"rtt_p90_us", median(serve.p90s), "us"},
        {"batch_rtt_p50_us", median(serve.batch_p50s), "us"},
        {"predictions_per_s", median(serve.rates), "1/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ok_frac", ok_frac, "frac"},
    };
  } else {
    const int e = kRounds - 1;  // the last traced round
    const double events = static_cast<double>(offline->sim_events);
    const double cycles = tracer.count("dta.characterizeAll", e);
    const double dta_core = tracer.cpu("dta.characterizeAll", e);
    const double rows = static_cast<double>(offline->train_rows);
    const double train_s = tracer.wall("ml.train", e);
    const double server_p50_us = serve.server_latency.p50() * 1e3;
    const double probe_p50_us = median(serve.probe_p50s);
    const double routed_p50 = spec->routed ? rtt_p50_us : probe_p50_us;
    const double direct_p50 = spec->routed ? probe_p50_us : rtt_p50_us;
    metrics = {
        {"liberty.annotate_ms", tracer.wall("liberty.annotate", e) * 1e3,
         "ms"},
        {"liberty.corners", static_cast<double>(in.corners.size()), "count"},
        {"sim.events", events, "count"},
        {"sim.events_per_cycle", events / cycles, "count"},
        {"sim.trace_digest",
         static_cast<double>(offline->digest & ((1ULL << 53) - 1)), "hash"},
        {"sim.ns_per_event", dta_core * 1e9 / events, "ns"},
        {"dta.cycles_per_s",
         cycles / tracer.wall("dta.characterizeAll", e), "1/s"},
        {"dta.core_s", dta_core, "s"},
        {"ml.train_rows", rows, "count"},
        {"ml.node_count", static_cast<double>(offline->node_count), "count"},
        {"ml.train_s", train_s, "s"},
        {"ml.train_rows_per_s", rows / train_s, "1/s"},
        {"ml.compile_ms", tracer.wall("ml.compile", e) * 1e3, "ms"},
        {"tevot.eval_predictions_per_s",
         static_cast<double>(offline->eval_predictions) /
             tracer.wall("tevot.evaluate", e),
         "1/s"},
        {"tevot.batch_predictions_per_s", batch_ceiling, "1/s"},
        {"verify.certify_ms", tracer.wall("verify.certify", e) * 1e3, "ms"},
        {"serve.server_p50_us", server_p50_us, "us"},
        {"serve.wire_us", rtt_p50_us - server_p50_us, "us"},
        {"fleet.router_p50_us", serve.router_latency.p50() * 1e3, "us"},
        {"fleet.worker_p50_us", worker_p50_us, "us"},
        {"fleet.hop_us", routed_p50 - direct_p50, "us"},
        {"client.rtt_p99_us", quantile(serve.pooled, 0.99), "us"},
        {"client.rtt_samples", static_cast<double>(serve.pooled.size()),
         "count"},
        {"trace.overhead_frac",
         median(traced_walls) / median(untraced_walls) - 1.0, "frac"},
    };
  }

  for (const std::string& failure : checks.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  const std::string result =
      std::string("{\"correct\": ") +
      (checks.failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(checks.attempted) +
      ", \"failed\": " + std::to_string(checks.failed) +
      ", \"metrics\": " + metricsJson(metrics) + "}";
  if (!opt.record.empty()) writeRecord(opt.record, machine, result, tracer);
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return checks.failed == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: tevot_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--record <file>] [--rev <text>] [--inject-mismatch]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--inject-mismatch") {
      opt.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::string_view(value) == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else if (arg == "--record") {
      opt.record = value;
    } else if (arg == "--rev") {
      opt.rev = value;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || !have_seed || !(opt.seconds > 0.0) ||
      opt.work_dir.empty()) {
    return usage();
  }
  try {
    return runBenchmark(opt);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: aborted: %s\n", error.what());
    return 2;
  }
}
