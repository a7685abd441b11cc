// tevot_cli — command-line driver for the library's main flows, so
// the characterization/training pipeline can be scripted without
// writing C++.
//
//   tevot_cli fu-list
//   tevot_cli export-verilog <fu> <file.v>
//   tevot_cli export-lib <file.lib>
//   tevot_cli sdf <fu> <V> <T> <file.sdf>
//   tevot_cli sta <fu> <V> <T>
//   tevot_cli characterize <fu> <V> <T> <cycles> [csv-file]
//   tevot_cli train <fu> <model-file> [cycles-per-corner]
//   tevot_cli predict <model-file> <V> <T> <a> <b> <prev_a> <prev_b>
//                     [tclk_ps]
//   tevot_cli check [n-seeds] [--seed S]
//   tevot_cli sweep <fu> <cycles-per-corner> [--out DIR] [--grid NVxNT]
//             [--seed S] [--resume] [--report FILE]
//   tevot_cli lint <fu>|--all [--grid NVxNT] [--budget PS]
//             [--waivers FILE] [--sdf FILE] [--json FILE]
//   tevot_cli serve-check <port> <model-file> <fu> [--clients N]
//             [--requests N] [--seed S]
//
// FU names: int_add, int_mul, fp_add, fp_mul. Numeric operands accept
// 0x-prefixed hex. `train` uses the Fig. 3 3x3 corner subset with
// random workloads; `predict` prints the predicted dynamic delay and,
// if a clock period is given, the error classification. `check` runs
// every differential oracle (src/check/) over n-seeds seeds (default
// 25) starting at S (default 1) and exits nonzero on the first
// violation, printing the exact seed so
// `tevot_cli check 1 --seed S` reproduces it.
//
// `lint` runs the static analyzer (src/lint/) over a generated FU (or
// all of them with --all): structural netlist rules, cross-artifact
// Liberty/SDF consistency rules over the --grid corners (the SDF side
// is a write->parse round trip of the netlist's own annotation unless
// --sdf supplies an external file), and static-timing reports. A
// --waivers file suppresses reviewed findings; --json writes the
// machine-readable report ("-" for stdout). Exit 3 when any un-waived
// error-severity finding remains, 0 when the design is clean or fully
// waived.
//
// `sweep` runs the resilient corner-sweep engine (dta::runSweep) over
// an NVxNT (V,T) grid: each corner runs once, a failing corner is
// recorded in the sweep report instead of killing the run, each
// completed corner is checkpointed atomically into --out, and --resume
// restores completed corners from disk and recomputes the rest, which
// is how failed corners are recovered. The TEVOT_FAULTS environment
// spec arms deterministic fault injection (see
// util/fault_injection.hpp).
// SIGINT/SIGTERM stop a sweep cooperatively: the in-flight corner
// finishes and flushes its checkpoint, the report is printed, and the
// process exits 130 — a subsequent --resume run picks up cleanly.
//
// `serve-check` drives a running tevot_serve instance on
// 127.0.0.1:<port> with concurrent clients (including malformed
// lines) and verifies the serving resilience contract against the
// offline model file: exactly one well-formed response per request,
// and OK answers bit-identical to local prediction. Exit 3 on any
// contract violation — this is the CI serve smoke check.
//
// The global `--jobs N` option (or TEVOT_JOBS) sets the worker count
// for the parallel commands (`train`, `sweep`); N=0 means one job per
// hardware thread, up to util::kMaxJobs. Results are bit-identical for
// every N.
// Every numeric argument must be a complete, finite, in-range number;
// anything else is a usage error.
//
// Exit codes: 0 success, 1 runtime failure (I/O error, failed sweep
// jobs), 2 usage error, 3 check/oracle violation.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/env.hpp"
#include "util/fault_injection.hpp"
#include "util/json.hpp"
#include "util/signal.hpp"
#include "util/text_io.hpp"
#include "util/thread_pool.hpp"

#include "check/dvfs_oracle.hpp"
#include "check/flat_oracle.hpp"
#include "check/fleet_oracle.hpp"
#include "check/oracles.hpp"
#include "check/property.hpp"
#include "check/serve_oracle.hpp"
#include "check/sweep_oracle.hpp"
#include "check/verify_oracle.hpp"
#include "dta/sweep.hpp"
#include "liberty/lib_format.hpp"
#include "lint/rules.hpp"
#include "lint/waiver.hpp"
#include "netlist/verilog.hpp"
#include "sdf/sdf.hpp"
#include "tevot/operating_grid.hpp"
#include "tevot/pipeline.hpp"
#include "verify/model_rules.hpp"

namespace {

using namespace tevot;

// Exit-code taxonomy, so scripts and CI can tell a misspelled command
// from a crashed run from a failed oracle.
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitCheckFailed = 3;
constexpr int kExitInterrupted = 130;  // 128 + SIGINT, shell convention

/// Bounds of the numeric arguments.
constexpr double kMaxCycles = 1e8;
constexpr double kMaxPicoseconds = 1e12;

/// util::parseNumber, saying on stderr what `what` wanted when `text`
/// is not a complete, finite number in [lo, hi] (whole for integral T).
template <typename T>
bool numberArg(const char* text, const char* what, double lo, double hi,
               T* out) {
  if (util::parseNumber(text, lo, hi, out)) return true;
  std::fprintf(stderr, "tevot_cli: %s must be a %snumber in [%g, %g], not "
               "'%s'\n", what, std::is_integral_v<T> ? "whole " : "", lo, hi,
               text);
  return false;
}

/// A voltage/temperature pair: V in (0, 10] V, T in [-273.15, 1000] C.
bool cornerArgs(const char* v_text, const char* t_text, liberty::Corner* out) {
  return numberArg(v_text, "voltage", 1e-3, 10.0, &out->voltage) &&
         numberArg(t_text, "temperature", -273.15, 1000.0, &out->temperature);
}

/// "NVxNT", two whole numbers in [1, 1000].
bool gridArg(const char* text, int* grid_v, int* grid_t) {
  const std::string grid = text;
  const std::size_t x = grid.find('x');
  return x != std::string::npos &&
         numberArg(grid.substr(0, x).c_str(), "grid voltages", 1, 1000,
                   grid_v) &&
         numberArg(grid.substr(x + 1).c_str(), "grid temperatures", 1, 1000,
                   grid_t);
}

int usage() {
  std::fprintf(stderr,
               "usage: tevot_cli [--jobs N] <command> [args]\n"
               "  fu-list\n"
               "  export-verilog <fu> <file.v>\n"
               "  export-lib <file.lib>\n"
               "  sdf <fu> <V> <T> <file.sdf>\n"
               "  sta <fu> <V> <T>\n"
               "  characterize <fu> <V> <T> <cycles> [csv-file]\n"
               "  train <fu> <model-file> [cycles-per-corner]\n"
               "  predict <model-file> <V> <T> <a> <b> <prev_a> <prev_b> "
               "[tclk_ps]\n"
               "  check [n-seeds] [--seed S]\n"
               "  sweep <fu> <cycles-per-corner> [--out DIR] [--grid NVxNT]\n"
               "        [--seed S] [--resume] [--report FILE]\n"
               "  lint <fu>|--all [--grid NVxNT] [--budget PS] "
               "[--waivers FILE]\n"
               "       [--sdf FILE] [--json FILE]\n"
               "  verify-model <model-file> [--grid NVxNT] [--tclk PS]\n"
               "               [--refine-budget N] [--waivers FILE]\n"
               "               [--json FILE] [--cert FILE]\n"
               "  serve-check <port> <model-file> <fu> [--clients N] "
               "[--requests N]\n"
               "              [--seed S]\n"
               "fu: int_add | int_mul | fp_add | fp_mul\n"
               "--jobs N: worker threads for parallel commands "
               "(0 = hardware threads)\n"
               "exit codes: 0 ok, 1 runtime failure, 2 usage, "
               "3 check failure,\n"
               "            130 sweep interrupted by SIGINT/SIGTERM\n");
  return kExitUsage;
}

/// Writes `text` to `path` whole or not at all; a failure throws
/// util::StatusError naming the path, which main reports with exit 1.
void writeTextFile(const std::string& path, std::string_view who,
                   const std::string& text) {
  util::writeFileAtomic(path, who,
                        [&](util::TextWriter& out) { out.text(text); });
}

int cmdFuList() {
  std::printf("%-8s %8s %8s %7s\n", "fu", "gates", "nets", "depth");
  for (const circuits::FuKind kind : circuits::kAllFus) {
    const netlist::Netlist nl = circuits::buildFu(kind);
    std::printf("%-8s %8zu %8zu %7d\n",
                std::string(circuits::fuName(kind)).c_str(),
                nl.gateCount(), nl.netCount(), nl.depth());
  }
  return 0;
}

int cmdExportVerilog(const std::string& fu, const std::string& path) {
  const std::optional<circuits::FuKind> kind = circuits::fuFromSlug(fu);
  if (!kind) return usage();
  netlist::writeVerilogFile(path, circuits::buildFu(*kind));
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int cmdExportLib(const std::string& path) {
  liberty::LibertyLibrary library;
  library.cells = liberty::CellLibrary::defaultLibrary();
  liberty::writeLibertyFile(path, library);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int cmdSdf(const std::string& fu, double v, double t,
           const std::string& path) {
  const std::optional<circuits::FuKind> kind = circuits::fuFromSlug(fu);
  if (!kind) return usage();
  core::FuContext context(*kind);
  sdf::writeSdfFile(path, context.netlist(),
                    context.delaysAt({v, t}));
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int cmdSta(const std::string& fu, double v, double t) {
  const std::optional<circuits::FuKind> kind = circuits::fuFromSlug(fu);
  if (!kind) return usage();
  core::FuContext context(*kind);
  std::printf("%s @ (%.2f V, %.0f C): critical path %.1f ps\n",
              std::string(circuits::fuName(*kind)).c_str(), v, t,
              context.staCriticalPathPs({v, t}));
  return 0;
}

int cmdCharacterize(const std::string& fu, double v, double t,
                    long cycles, const char* csv_path) {
  const std::optional<circuits::FuKind> kind = circuits::fuFromSlug(fu);
  if (!kind) return usage();
  core::FuContext context(*kind);
  util::Rng rng(1);
  const auto workload = dta::randomWorkloadFor(
      *kind, static_cast<std::size_t>(cycles), rng);
  const dta::DtaTrace trace = context.characterize({v, t}, workload);
  const auto stats = trace.delayStats();
  std::printf("%s @ (%.2f V, %.0f C), %zu cycles:\n",
              std::string(circuits::fuName(*kind)).c_str(), v, t,
              trace.samples.size());
  std::printf("  dynamic delay: mean %.1f ps, stddev %.1f ps, max %.1f "
              "ps\n",
              stats.mean(), stats.stddev(), stats.max());
  for (const double speedup : dta::kClockSpeedups) {
    const double tclk = dta::speedupClockPs(trace.baseClockPs(), speedup);
    std::printf("  TER @ +%2.0f%% speedup (%.1f ps): %.3f%%\n",
                speedup * 100.0, tclk,
                100.0 * trace.timingErrorRate(tclk));
  }
  if (csv_path != nullptr) {
    util::writeFileAtomic(
        csv_path, "characterize", [&](util::TextWriter& csv) {
          csv.text("cycle,a,b,prev_a,prev_b,delay_ps\n");
          char delay[32];
          for (std::size_t i = 0; i < trace.samples.size(); ++i) {
            const dta::DtaSample& sample = trace.samples[i];
            std::snprintf(delay, sizeof(delay), "%g", sample.delay_ps);
            csv.number(i).text(",").number(sample.a).text(",");
            csv.number(sample.b).text(",").number(sample.prev_a).text(",");
            csv.number(sample.prev_b).text(",").text(delay).text("\n");
          }
        });
    std::printf("  wrote %s\n", csv_path);
  }
  return 0;
}

int cmdTrain(const std::string& fu, const std::string& model_path,
             long cycles, util::ThreadPool& pool) {
  const std::optional<circuits::FuKind> kind = circuits::fuFromSlug(fu);
  if (!kind) return usage();
  core::FuContext context(*kind);
  util::Rng rng(7);
  // Draw every workload sequentially first, so the training data is
  // identical for any --jobs value, then characterize on the pool.
  const auto corners = core::OperatingGrid::paper().subsampled(3, 3);
  std::vector<dta::Workload> workloads;
  std::vector<dta::CharacterizeJob> jobs;
  workloads.reserve(corners.size());
  for (std::size_t c = 0; c < corners.size(); ++c) {
    workloads.push_back(dta::randomWorkloadFor(
        *kind, static_cast<std::size_t>(cycles), rng));
  }
  for (std::size_t c = 0; c < corners.size(); ++c) {
    jobs.push_back(context.characterizeJob(corners[c], workloads[c]));
  }
  std::vector<dta::DtaTrace> traces = dta::characterizeAll(jobs, pool);
  for (std::size_t c = 0; c < corners.size(); ++c) {
    std::printf("characterized (%.2f V, %3.0f C): mean %.1f ps\n",
                corners[c].voltage, corners[c].temperature,
                traces[c].meanDelayPs());
  }
  core::TevotModel model;
  model.train(traces, rng, &pool);
  model.save(model_path);
  std::printf(
      "trained on %zu corners x %ld cycles (jobs=%zu, split size %d); "
      "saved %s\n",
      traces.size(), cycles, pool.threadCount(), model.splitSize(),
      model_path.c_str());
  return 0;
}

/// argv: model V T a b prev_a prev_b [tclk_ps].
int cmdPredict(int argc, char** argv) {
  liberty::Corner corner;
  std::uint32_t words[4] = {};
  const char* names[4] = {"a", "b", "prev_a", "prev_b"};
  double tclk = 0.0;
  if (!cornerArgs(argv[3], argv[4], &corner)) return usage();
  for (int w = 0; w < 4; ++w) {
    if (!util::parseIntegerOrHex(std::string_view(argv[5 + w]), &words[w])) {
      std::fprintf(stderr,
                   "tevot_cli: %s must be a 32-bit word, decimal or 0x hex, "
                   "not '%s'\n",
                   names[w], argv[5 + w]);
      return usage();
    }
  }
  if (argc == 10 &&
      !numberArg(argv[9], "tclk_ps", 1e-9, kMaxPicoseconds, &tclk)) {
    return usage();
  }
  const core::TevotModel model = core::TevotModel::load(argv[2]);
  const double delay =
      model.predictDelay(words[0], words[1], words[2], words[3], corner);
  std::printf("predicted dynamic delay: %.1f ps\n", delay);
  if (argc == 10) {
    std::printf("at tclk = %.1f ps: %s\n", tclk,
                delay > tclk ? "TIMING ERROR" : "timing correct");
  }
  return 0;
}

int cmdCheck(int n_seeds, std::uint64_t base_seed) {
  // One context per FU so the per-corner delay caches are shared
  // across seeds (FuContext holds a mutex, hence the unique_ptrs).
  std::vector<std::unique_ptr<core::FuContext>> contexts;
  for (const circuits::FuKind kind : circuits::kAllFus) {
    contexts.push_back(std::make_unique<core::FuContext>(kind));
  }
  std::vector<std::pair<std::string, check::Property>> properties;
  properties.emplace_back("sim-vs-sta/random-netlist",
                          check::checkSimVsStaOnRandomNetlist);
  properties.emplace_back("sim-vs-sta/sensitized-chain",
                          check::checkSimMeetsStaOnChain);
  for (auto& context : contexts) {
    core::FuContext* fu = context.get();
    const std::string name(circuits::fuName(fu->kind()));
    properties.emplace_back(
        "sim-vs-sta/" + name,
        [fu](std::uint64_t seed, util::Rng& rng) {
          check::checkSimVsStaOnFu(*fu, seed, rng);
        });
    properties.emplace_back(
        "sim-vs-ref/" + name,
        [fu](std::uint64_t seed, util::Rng& rng) {
          check::checkSimVsReferenceOnFu(*fu, seed, rng);
        });
  }
  properties.emplace_back("model-round-trip", check::checkModelRoundTrip);
  properties.emplace_back("flat-forest/bit-identity",
                          check::checkFlatForestBitIdentity);
  properties.emplace_back("sweep/fault-tolerance",
                          check::checkSweepFaultTolerance);
  properties.emplace_back("serve/resilience", check::checkServeResilience);
  properties.emplace_back("fleet/resilience", check::checkFleetResilience);
  properties.emplace_back("dvfs/safety", check::checkDvfsSafety);
  properties.emplace_back("verify/bounds-containment",
                          check::checkVerifyBoundsContainment);
  properties.emplace_back("verify/certification",
                          check::checkVerifyCertification);
  if (util::envFlag("TEVOT_CHECK_FORCE_FAIL")) {
    // Internal self-test knob: a property that always fails, so the
    // exit-code taxonomy (3 = check failure) can be tested end to end.
    properties.emplace_back("self-test/forced-failure",
                            [](std::uint64_t, util::Rng&) {
                              check::expect(false, "forced failure");
                            });
  }

  bool ok = true;
  for (const auto& [name, property] : properties) {
    const check::PropertyResult result =
        check::forAllSeeds(base_seed, n_seeds, property);
    std::printf("%s\n", result.report(name).c_str());
    if (!result.ok) {
      std::printf("  reproduce: tevot_cli check 1 --seed %llu\n",
                  static_cast<unsigned long long>(result.failing_seed));
      ok = false;
    }
  }
  return ok ? kExitOk : kExitCheckFailed;
}

int cmdLint(int argc, char** argv, util::ThreadPool& pool) {
  std::vector<circuits::FuKind> kinds;
  bool all = false;
  std::string waiver_path;
  std::string json_path;
  std::string sdf_path;
  double budget_ps = 0.0;
  int grid_v = 3, grid_t = 3;
  util::FlagReader flags("lint", argc - 1, argv + 1);
  while (flags.next()) {
    const std::string& arg = flags.flag();
    if (arg == "--all") {
      all = true;
    } else if (arg == "--waivers") {
      const char* v = flags.value();
      if (v == nullptr) return usage();
      waiver_path = v;
    } else if (arg == "--json") {
      const char* v = flags.value();
      if (v == nullptr) return usage();
      json_path = v;
    } else if (arg == "--sdf") {
      const char* v = flags.value();
      if (v == nullptr) return usage();
      sdf_path = v;
    } else if (arg == "--budget") {
      if (!flags.number(1e-9, kMaxPicoseconds, &budget_ps)) return usage();
    } else if (arg == "--grid") {
      const char* v = flags.value();
      if (v == nullptr || !gridArg(v, &grid_v, &grid_t)) return usage();
    } else {
      const std::optional<circuits::FuKind> kind = circuits::fuFromSlug(arg);
      if (!kind) return usage();
      kinds.push_back(*kind);
    }
  }
  if (all) {
    if (!kinds.empty()) return usage();
    kinds.assign(circuits::kAllFus.begin(), circuits::kAllFus.end());
  }
  if (kinds.empty()) return usage();
  if (!sdf_path.empty() && kinds.size() != 1) {
    std::fprintf(stderr, "lint: --sdf applies to a single fu\n");
    return usage();
  }

  const liberty::CellLibrary library = liberty::CellLibrary::defaultLibrary();
  const liberty::VtModel vt_model;
  const std::vector<liberty::Corner> corners =
      core::OperatingGrid::paper().subsampled(grid_v, grid_t);
  const liberty::Corner nominal{vt_model.params().vnom,
                                vt_model.params().tnom_c};

  // Each FU lints into an indexed slot (rule execution inside runLint
  // is pool-parallel too), then slots are rendered in FU order — the
  // output is byte-identical for any --jobs value.
  struct FuLintOutput {
    std::string text;
    std::string json;
    bool clean = true;
  };
  std::vector<FuLintOutput> outputs(kinds.size());
  const auto lint_one = [&](std::size_t idx) {
    const netlist::Netlist nl = circuits::buildFu(kinds[idx]);
    // The SDF under test: an external file, or a write->parse round
    // trip of this netlist's own nominal-corner annotation (proving
    // the writer, the parser and the annotator agree end to end).
    liberty::CornerDelays sdf_delays;
    if (!sdf_path.empty()) {
      sdf_delays = sdf::parseSdfFile(sdf_path, nl);
    } else {
      const liberty::CornerDelays annotated =
          liberty::annotateCorner(nl, library, vt_model, nominal);
      sdf_delays = sdf::parseSdfString(sdf::toSdfString(nl, annotated), nl);
    }

    lint::LintContext ctx;
    ctx.netlist = &nl;
    ctx.library = &library;
    ctx.vt_model = &vt_model;
    ctx.corners = corners;
    ctx.sdf_delays = &sdf_delays;
    ctx.clock_budget_ps = budget_ps;

    lint::WaiverSet waivers;
    if (!waiver_path.empty()) {
      waivers = lint::WaiverSet::parseFile(waiver_path);
    }
    const lint::LintReport report = lint::runLint(ctx, &waivers, &pool);
    outputs[idx].text = report.toText();
    outputs[idx].json = report.toJson();
    outputs[idx].clean = report.clean();
  };
  if (kinds.size() > 1 && pool.threadCount() > 1) {
    pool.parallelFor(kinds.size(), lint_one);
  } else {
    for (std::size_t i = 0; i < kinds.size(); ++i) lint_one(i);
  }

  bool clean = true;
  util::json::Writer array;
  array.beginArray();
  for (const FuLintOutput& out : outputs) {
    std::printf("%s", out.text.c_str());
    clean = clean && out.clean;
    array.raw(out.json);
  }
  const std::string json =
      (kinds.size() > 1 ? array.endArray().str() : outputs[0].json) + "\n";
  if (json_path == "-") {
    std::printf("%s", json.c_str());
  } else if (!json_path.empty()) {
    writeTextFile(json_path, "lint", json);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return clean ? kExitOk : kExitCheckFailed;
}

/// "0.85 V, 25 C" -> "0v85_25c" — the per-corner checkpoint key stem.
std::string cornerSlug(const liberty::Corner& corner) {
  const int centivolts = static_cast<int>(corner.voltage * 100.0 + 0.5);
  const int degrees = static_cast<int>(corner.temperature + 0.5);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%dv%02d_%dc", centivolts / 100,
                centivolts % 100, degrees);
  return buf;
}

int cmdSweep(int argc, char** argv, util::ThreadPool& pool) {
  // Positional: fu, cycles-per-corner. Everything else is flags.
  std::string fu;
  long cycles = -1;
  int grid_v = 3, grid_t = 3;
  std::uint64_t seed = 7;
  std::string report_path;
  dta::SweepOptions options;
  options.faults = &util::FaultInjector::global();
  util::FlagReader flags("sweep", argc - 1, argv + 1);
  while (flags.next()) {
    const std::string& arg = flags.flag();
    if (arg == "--out") {
      const char* v = flags.value();
      if (v == nullptr) return usage();
      options.checkpoint_dir = v;
    } else if (arg == "--grid") {
      const char* v = flags.value();
      if (v == nullptr || !gridArg(v, &grid_v, &grid_t)) return usage();
    } else if (arg == "--seed") {
      if (!flags.number(0, util::kMaxExactInteger, &seed)) return usage();
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--report") {
      const char* v = flags.value();
      if (v == nullptr) return usage();
      report_path = v;
    } else if (fu.empty()) {
      fu = arg;
    } else if (cycles < 0) {
      if (!numberArg(arg.c_str(), "cycles-per-corner", 2, kMaxCycles,
                     &cycles)) {
        return usage();
      }
    } else {
      return usage();
    }
  }
  const std::optional<circuits::FuKind> kind = circuits::fuFromSlug(fu);
  if (cycles < 2 || !kind) return usage();
  if (options.resume && options.checkpoint_dir.empty()) {
    std::fprintf(stderr, "sweep: --resume requires --out\n");
    return usage();
  }

  if (options.faults->armed()) {
    std::printf("faults armed: %s\n",
                options.faults->plan().spec().c_str());
  }

  // Cooperative interruption: the first SIGINT/SIGTERM stops new
  // corners from starting; the in-flight corner completes and flushes
  // its checkpoint so --resume always sees a consistent directory.
  util::SignalFlag stop{SIGINT, SIGTERM};
  options.stop_requested = [&stop] { return stop.raised(); };

  core::FuContext context(*kind);
  const auto corners =
      core::OperatingGrid::paper().subsampled(grid_v, grid_t);
  // Workloads are drawn sequentially from one seed, so the job set is
  // identical across runs — the property --resume depends on.
  util::Rng rng(seed);
  std::vector<dta::Workload> workloads;
  workloads.reserve(corners.size());
  for (std::size_t c = 0; c < corners.size(); ++c) {
    workloads.push_back(dta::randomWorkloadFor(
        *kind, static_cast<std::size_t>(cycles), rng));
  }
  std::vector<dta::CharacterizeJob> jobs;
  jobs.reserve(corners.size());
  for (std::size_t c = 0; c < corners.size(); ++c) {
    dta::CharacterizeJob job =
        context.characterizeJob(corners[c], workloads[c]);
    job.name = fu + "_" + cornerSlug(corners[c]);
    jobs.push_back(std::move(job));
  }

  const dta::SweepResult result = dta::runSweep(jobs, pool, options);
  std::printf("%s", result.report.toText().c_str());
  if (!report_path.empty()) {
    writeTextFile(report_path, "sweep", result.report.toText());
    std::printf("wrote %s\n", report_path.c_str());
  }
  if (stop.raised()) {
    std::printf(
        "sweep interrupted by signal %d; completed corners are "
        "checkpointed%s\n",
        stop.lastSignal(),
        options.checkpoint_dir.empty() ? "" : " — rerun with --resume");
    std::fflush(stdout);
    return kExitInterrupted;
  }
  return result.report.allOk() ? kExitOk : kExitRuntime;
}

// verify-model: interval certification over a trained model's whole
// feature domain (MV rule catalog, DESIGN.md §5h). Exit taxonomy
// matches lint: 0 clean, 3 unwaived error findings, 1/2 runtime/usage.
int cmdVerifyModel(int argc, char** argv) {
  std::string model_path;
  std::string waiver_path;
  std::string json_path;
  std::string cert_path;
  double tclk_ps = 0.0;
  long refine_budget = 4096;
  int grid_v = 0, grid_t = 0;  // 0 = the full paper grid corner set
  util::FlagReader flags("verify-model", argc - 1, argv + 1);
  while (flags.next()) {
    const std::string& arg = flags.flag();
    if (arg == "--tclk") {
      if (!flags.number(1e-9, kMaxPicoseconds, &tclk_ps)) return usage();
    } else if (arg == "--refine-budget") {
      if (!flags.number(1, 1e9, &refine_budget)) return usage();
    } else if (arg == "--waivers") {
      const char* v = flags.value();
      if (v == nullptr) return usage();
      waiver_path = v;
    } else if (arg == "--json") {
      const char* v = flags.value();
      if (v == nullptr) return usage();
      json_path = v;
    } else if (arg == "--cert") {
      const char* v = flags.value();
      if (v == nullptr) return usage();
      cert_path = v;
    } else if (arg == "--grid") {
      const char* v = flags.value();
      if (v == nullptr || !gridArg(v, &grid_v, &grid_t)) return usage();
    } else if (model_path.empty() && arg[0] != '-') {
      model_path = arg;
    } else {
      return usage();
    }
  }
  if (model_path.empty()) return usage();
  if (!cert_path.empty() && tclk_ps <= 0.0) {
    std::fprintf(stderr, "verify-model: --cert requires --tclk\n");
    return usage();
  }

  const core::TevotModel model = core::TevotModel::load(model_path);
  verify::ModelVerifyContext ctx;
  ctx.model = &model;
  ctx.tclk_ps = tclk_ps;
  ctx.refine_budget = static_cast<std::size_t>(refine_budget);
  ctx.model_path = model_path;
  if (grid_v > 0) ctx.corners = ctx.grid.subsampled(grid_v, grid_t);
  lint::WaiverSet waivers;
  if (!waiver_path.empty()) {
    waivers = lint::WaiverSet::parseFile(waiver_path);
  }

  const verify::ModelVerifyResult result =
      verify::runModelVerify(ctx, &waivers);
  std::printf("%s", result.report.toText().c_str());
  const verify::SafeTclkCertificate& cert = result.certificate;
  std::printf(
      "guaranteed delay bound over the operating box: [%.3f, %.3f] ps\n",
      static_cast<double>(cert.bound_lo_ps),
      static_cast<double>(cert.bound_hi_ps));
  if (tclk_ps > 0.0) {
    std::printf("safe-tclk %.3f ps: %s\n", tclk_ps,
                cert.certified ? "CERTIFIED" : "NOT CERTIFIED");
  }

  if (json_path == "-") {
    std::printf("%s\n", result.report.toJson().c_str());
  } else if (!json_path.empty()) {
    writeTextFile(json_path, "verify-model", result.report.toJson() + "\n");
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!cert_path.empty()) {
    writeTextFile(cert_path, "verify-model", cert.toJson() + "\n");
    std::printf("wrote %s\n", cert_path.c_str());
  }
  return result.report.clean() ? kExitOk : kExitCheckFailed;
}

int cmdServeCheck(int argc, char** argv) {
  int port = -1;
  std::string model_path;
  std::string fu;
  check::ServeDriveOptions options;
  std::uint64_t seed = 1;
  util::FlagReader flags("serve-check", argc - 1, argv + 1);
  while (flags.next()) {
    const std::string& arg = flags.flag();
    if (arg == "--clients") {
      if (!flags.number(1, 1024, &options.clients)) return usage();
    } else if (arg == "--requests") {
      if (!flags.number(1, 1e7, &options.requests_per_client)) return usage();
    } else if (arg == "--seed") {
      if (!flags.number(0, util::kMaxExactInteger, &seed)) return usage();
    } else if (port < 0) {
      if (!numberArg(arg.c_str(), "port", 1, 65535, &port)) return usage();
    } else if (model_path.empty()) {
      model_path = arg;
    } else if (fu.empty()) {
      fu = arg;
    } else {
      return usage();
    }
  }
  if (port <= 0 || port > 65535 || model_path.empty() ||
      !circuits::fuFromSlug(fu) || options.clients < 1 ||
      options.requests_per_client < 1) {
    return usage();
  }
  const core::TevotModel reference = core::TevotModel::load(model_path);
  try {
    check::driveAndVerifyServer(reference, fu, port, seed, options);
  } catch (const check::PropertyViolation& violation) {
    std::fprintf(stderr, "serve-check: FAIL: %s\n", violation.what());
    return kExitCheckFailed;
  }
  std::printf("serve-check: ok (%d clients x %d requests, seed %llu)\n",
              options.clients, options.requests_per_client,
              static_cast<unsigned long long>(seed));
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global --jobs option (also honors TEVOT_JOBS) before
  // command dispatch so it can appear anywhere on the line.
  // Checked before any thread starts: a wrapped or huge count is a
  // usage error, not a request for that many workers.
  std::size_t jobs = 1;
  const char* env = std::getenv("TEVOT_JOBS");
  if (env != nullptr && *env != '\0' &&
      !numberArg(env, "TEVOT_JOBS", 0, util::kMaxJobs, &jobs)) {
    return usage();
  }
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const char* value = nullptr;
    if (i > 0 && std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      value = argv[++i];
    } else if (i > 0 && std::strncmp(argv[i], "--jobs=", 7) == 0) {
      value = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
      continue;
    }
    if (!numberArg(value, "--jobs", 0, util::kMaxJobs, &jobs)) return usage();
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    util::ThreadPool pool(jobs);
    if (command == "fu-list" && argc == 2) return cmdFuList();
    if (command == "export-verilog" && argc == 4) {
      return cmdExportVerilog(argv[2], argv[3]);
    }
    if (command == "export-lib" && argc == 3) return cmdExportLib(argv[2]);
    liberty::Corner corner;
    if (command == "sdf" && argc == 6) {
      if (!cornerArgs(argv[3], argv[4], &corner)) return usage();
      return cmdSdf(argv[2], corner.voltage, corner.temperature, argv[5]);
    }
    if (command == "sta" && argc == 5) {
      if (!cornerArgs(argv[3], argv[4], &corner)) return usage();
      return cmdSta(argv[2], corner.voltage, corner.temperature);
    }
    if (command == "characterize" && (argc == 6 || argc == 7)) {
      long cycles = 0;
      if (!cornerArgs(argv[3], argv[4], &corner) ||
          !numberArg(argv[5], "cycles", 2, kMaxCycles, &cycles)) {
        return usage();
      }
      return cmdCharacterize(argv[2], corner.voltage, corner.temperature,
                             cycles, argc == 7 ? argv[6] : nullptr);
    }
    if (command == "train" && (argc == 4 || argc == 5)) {
      long cycles = 1500;
      if (argc == 5 &&
          !numberArg(argv[4], "cycles-per-corner", 2, kMaxCycles, &cycles)) {
        return usage();
      }
      return cmdTrain(argv[2], argv[3], cycles, pool);
    }
    if (command == "predict" && (argc == 9 || argc == 10)) {
      return cmdPredict(argc, argv);
    }
    if (command == "check") {
      int n_seeds = 25;
      std::uint64_t base_seed = check::kDefaultSeedBase;
      bool have_count = false;
      util::FlagReader flags("check", argc - 1, argv + 1);
      while (flags.next()) {
        if (flags.flag() == "--seed") {
          if (!flags.number(0, util::kMaxExactInteger, &base_seed)) {
            return usage();
          }
        } else if (have_count || !numberArg(flags.flag().c_str(), "n-seeds",
                                            1, 1e9, &n_seeds)) {
          return usage();
        } else {
          have_count = true;
        }
      }
      return cmdCheck(n_seeds, base_seed);
    }
    if (command == "sweep") return cmdSweep(argc, argv, pool);
    if (command == "lint") return cmdLint(argc, argv, pool);
    if (command == "verify-model") return cmdVerifyModel(argc, argv);
    if (command == "serve-check") return cmdServeCheck(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tevot_cli: %s\n", error.what());
    return kExitRuntime;
  }
  return usage();
}
