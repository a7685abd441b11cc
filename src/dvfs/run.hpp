// Multi-FU driver for the closed-loop DVFS scenario: builds the
// per-FU stream, backend and ground-truth simulator, refuses adaptive
// mode when a certificate is missing or unusable (a typed report
// entry, never a crash), and runs the controllers across a thread
// pool. Shared by tools/tevot_dvfs, bench/bench_dvfs_closed_loop and
// check::checkDvfsSafety.
//
// Determinism: each FU's run depends only on its own stream seed and
// its backend's answers. With the in-process backend (or one server
// per FU) reports and traces are byte-identical at any pool size.
// With a *shared* server (RunOptions::serve_port) the server-side
// fault points key on global request/connection ids, so trace-exact
// reproducibility across runs additionally requires a single-threaded
// pool — document --jobs 1 wherever that mode is exposed.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "dvfs/controller.hpp"
#include "dvfs/stream.hpp"
#include "util/thread_pool.hpp"
#include "verify/model_rules.hpp"

namespace tevot::dvfs {

/// One FU to drive through the closed loop.
struct FuSetup {
  circuits::FuKind kind = circuits::FuKind::kIntAdd;
  /// In-process backend model; may be null in serve mode (the server
  /// owns the models). Must outlive runDvfs.
  const core::TevotModel* model = nullptr;
  /// Safe-tclk certificate for the fallback clock. `cert_status`
  /// carries the loader's verdict: any non-ok status (missing file,
  /// parse error, uncertified) makes runDvfs refuse adaptive mode for
  /// this FU and report why.
  verify::SafeTclkCertificate cert;
  util::Status cert_status = util::Status::okStatus();
};

struct RunOptions {
  /// Stream shape; `kind` is overridden per FU and `seed` is offset
  /// by the FU's index so streams are decorrelated but reproducible.
  StreamOptions stream;
  ControllerOptions controller;
  /// > 0 switches every FU to a ServeBackend against this (shared)
  /// port; 0 runs in-process and requires FuSetup::model.
  int serve_port = 0;
  /// In-process fault injector for the dvfs.predict point; nullptr
  /// uses the process-global (TEVOT_FAULTS) injector.
  util::FaultInjector* faults = nullptr;
};

struct RunReport {
  std::vector<DvfsReport> fus;  ///< input order

  /// FUs that actually ran adaptively (status ok).
  std::size_t ranCount() const;

  /// {"bench":"dvfs_closed_loop","label":...,"fus":[...]} — the
  /// payload tevot_dvfs --json prints and the bench writes to
  /// BENCH_dvfs_closed_loop.json. No trailing newline.
  std::string toJson(const std::string& label) const;
};

/// Checks `cert` (already loaded) is usable as the fallback clock for
/// a stream over `grid`: certified verdict, positive tclk, and an
/// operating box covering the grid the corner walk draws from.
util::Status validateCertificateForGrid(const verify::SafeTclkCertificate& cert,
                                        const core::OperatingGrid& grid);

/// Runs the closed loop for every FU. Throws std::invalid_argument on
/// a setup error that is a caller bug (in-process mode without a
/// model); per-FU degradations — bad certificate, dead server — land
/// in that FU's report status/counters instead.
RunReport runDvfs(std::span<const FuSetup> fus, const RunOptions& options,
                  util::ThreadPool& pool);

}  // namespace tevot::dvfs
