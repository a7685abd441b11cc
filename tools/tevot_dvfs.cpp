// tevot_dvfs — closed-loop adaptive-clocking driver (src/dvfs/).
//
//   tevot_dvfs --cert-dir DIR (--model-dir DIR | --serve-port P)
//              [--fus a,b,...|--all] [--cycles N] [--window N]
//              [--seed N] [--guardband F] [--jobs N]
//              [--json PATH] [--trace-dir DIR] [--label TEXT]
//
// Runs the fault-tolerant DVFS controller over a seeded synthetic
// operand stream per FU: the model (in-process from --model-dir, or
// live over the wire against a tevot_serve on --serve-port) picks the
// per-window clock, every window is ground-truthed against the event
// simulator, and any degraded model answer falls back to the
// certified safe clock loaded from <cert-dir>/<fu>.cert.json (the
// `tevot_cli verify-model --cert` output). A missing or unusable
// certificate refuses adaptive mode for that FU — reported, never a
// crash. The hysteresis deadband, the escape budget and the watchdog
// step are the controller's constants (src/dvfs/controller.hpp), and
// served predicts carry no deadline.
//
// --json writes the machine-readable report (per-FU counters,
// throughput gain vs the worst-case clock); --trace-dir writes the
// per-window decision trace as <fu>.trace. Reports and traces are
// byte-identical across reruns with the same seed in in-process mode
// at any --jobs; with --serve-port the server's fault/request id
// space is shared across FUs, so exact trace reproducibility
// additionally requires --jobs 1.
//
// Numeric flags must be complete, finite numbers in range (--cycles
// >= 2, --window >= 1, --jobs <= 256, integers up to 2^53, no
// negative guardband); anything else is a usage error.
//
// Exit codes: 0 adaptive clocking ran with zero unrecovered
// violations, 1 runtime failure (no FU could run), 2 usage error,
// 3 unrecovered violations (escapes) remain after recovery.
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dvfs/run.hpp"
#include "tevot/model.hpp"
#include "util/env.hpp"
#include "util/status.hpp"
#include "util/text_io.hpp"
#include "util/thread_pool.hpp"
#include "verify/certificate_io.hpp"

namespace {

using namespace tevot;

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitEscapes = 3;

constexpr double kNoLimit = std::numeric_limits<double>::max();

int usage() {
  std::fprintf(
      stderr,
      "usage: tevot_dvfs --cert-dir DIR (--model-dir DIR | "
      "--serve-port P)\n"
      "                  [--fus a,b,...|--all] [--cycles N] [--window N]\n"
      "                  [--seed N] [--guardband F] [--jobs N]\n"
      "                  [--json PATH] [--trace-dir DIR]\n"
      "                  [--label TEXT]\n");
  return kExitUsage;
}

std::vector<std::string> splitList(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_dir;
  std::string cert_dir;
  std::string json_path;
  std::string trace_dir;
  std::string label = "default";
  std::vector<std::string> fu_slugs = {"int_add"};
  dvfs::RunOptions options;
  std::size_t jobs = 1;

  util::FlagReader flags("tevot_dvfs", argc, argv);
  while (flags.next()) {
    const std::string& arg = flags.flag();
    const char* v = nullptr;
    if (arg == "--model-dir") {
      if ((v = flags.value()) == nullptr) return usage();
      model_dir = v;
    } else if (arg == "--cert-dir") {
      if ((v = flags.value()) == nullptr) return usage();
      cert_dir = v;
    } else if (arg == "--serve-port") {
      if (!flags.number(1, 65535, &options.serve_port)) return usage();
    } else if (arg == "--fus") {
      if ((v = flags.value()) == nullptr) return usage();
      fu_slugs = splitList(v);
      if (fu_slugs.empty()) return usage();
    } else if (arg == "--all") {
      fu_slugs.clear();
      for (const circuits::FuKind kind : circuits::kAllFus) {
        fu_slugs.emplace_back(circuits::fuSlug(kind));
      }
    } else if (arg == "--cycles") {
      if (!flags.number(2, util::kMaxExactInteger, &options.stream.cycles)) {
        return usage();
      }
    } else if (arg == "--window") {
      if (!flags.number(1, util::kMaxExactInteger, &options.stream.window)) {
        return usage();
      }
    } else if (arg == "--seed") {
      if (!flags.number(0, util::kMaxExactInteger, &options.stream.seed)) {
        return usage();
      }
    } else if (arg == "--guardband") {
      if (!flags.number(0, kNoLimit, &options.controller.guardband)) {
        return usage();
      }
    } else if (arg == "--jobs") {
      if (!flags.number(0, util::kMaxJobs, &jobs)) return usage();
    } else if (arg == "--json") {
      if ((v = flags.value()) == nullptr) return usage();
      json_path = v;
    } else if (arg == "--trace-dir") {
      if ((v = flags.value()) == nullptr) return usage();
      trace_dir = v;
    } else if (arg == "--label") {
      if ((v = flags.value()) == nullptr) return usage();
      label = v;
    } else {
      std::fprintf(stderr, "tevot_dvfs: unknown option %s\n", arg.c_str());
      return usage();
    }
  }
  if (cert_dir.empty()) {
    std::fprintf(stderr, "tevot_dvfs: --cert-dir is required\n");
    return usage();
  }
  if (model_dir.empty() && options.serve_port == 0) {
    std::fprintf(stderr,
                 "tevot_dvfs: need --model-dir (in-process) or "
                 "--serve-port (live)\n");
    return usage();
  }

  // Build the per-FU setups. Model-load failures in in-process mode
  // and certificate problems both degrade to a per-FU refusal.
  std::vector<dvfs::FuSetup> fus;
  std::vector<std::unique_ptr<core::TevotModel>> models;
  for (const std::string& slug : fu_slugs) {
    const std::optional<circuits::FuKind> kind = circuits::fuFromSlug(slug);
    if (!kind) {
      std::fprintf(stderr, "tevot_dvfs: unknown fu '%s'\n", slug.c_str());
      return usage();
    }
    dvfs::FuSetup setup;
    setup.kind = *kind;
    setup.cert_status = verify::loadCertificateFile(
        cert_dir + "/" + slug + ".cert.json", &setup.cert);
    if (options.serve_port == 0) {
      try {
        models.push_back(std::make_unique<core::TevotModel>(
            core::TevotModel::load(model_dir + "/" + slug + ".model")));
        setup.model = models.back().get();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "tevot_dvfs: %s: cannot load model: %s\n",
                     slug.c_str(), e.what());
        continue;
      }
    }
    fus.push_back(std::move(setup));
  }
  if (fus.empty()) {
    std::fprintf(stderr, "tevot_dvfs: no usable FU\n");
    return kExitRuntime;
  }

  util::ThreadPool pool(jobs);
  dvfs::RunReport run;
  try {
    run = dvfs::runDvfs(fus, options, pool);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tevot_dvfs: %s\n", e.what());
    return kExitRuntime;
  }

  // Every output file is written whole or not at all.
  const auto write_file = [](const std::string& path,
                             const std::string& text) {
    try {
      util::writeFileAtomic(path, "tevot_dvfs", [&](util::TextWriter& out) {
        out.text(text);
      });
      return true;
    } catch (const util::StatusError& error) {
      std::fprintf(stderr, "tevot_dvfs: %s\n", error.what());
      return false;
    }
  };
  std::uint64_t escapes = 0;
  std::size_t ran = 0;
  for (const dvfs::DvfsReport& report : run.fus) {
    if (!report.status.ok()) {
      std::printf("tevot_dvfs: %s: refused adaptive mode: %s\n",
                  report.fu.c_str(), report.status.message.c_str());
      continue;
    }
    ++ran;
    escapes += report.escapes;
    std::printf(
        "tevot_dvfs: %s: %zu windows (%zu adaptive, %zu fallback) "
        "gain %.3fx viol=%llu recovered=%llu escapes=%llu\n",
        report.fu.c_str(), report.windows, report.adaptive_windows,
        report.fallback_windows, report.gain(),
        static_cast<unsigned long long>(report.violations),
        static_cast<unsigned long long>(report.recovered),
        static_cast<unsigned long long>(report.escapes));
    if (!trace_dir.empty()) {
      if (!write_file(trace_dir + "/" + report.fu + ".trace",
                      report.trace)) {
        return kExitRuntime;
      }
    }
  }

  if (!json_path.empty()) {
    if (!write_file(json_path, run.toJson(label) + "\n")) {
      return kExitRuntime;
    }
    std::fprintf(stderr, "tevot_dvfs: wrote %s\n", json_path.c_str());
  }

  if (ran == 0) {
    std::fprintf(stderr, "tevot_dvfs: no FU ran adaptively\n");
    return kExitRuntime;
  }
  if (escapes > 0) {
    std::fprintf(stderr,
                 "tevot_dvfs: %llu unrecovered violation(s) escaped "
                 "recovery\n",
                 static_cast<unsigned long long>(escapes));
    return kExitEscapes;
  }
  return kExitOk;
}
