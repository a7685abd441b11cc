#include "dvfs/run.hpp"

#include <cmath>
#include <memory>

#include "tevot/pipeline.hpp"
#include "util/json.hpp"

namespace tevot::dvfs {

namespace {

constexpr double kCornerEps = 1e-9;

}  // namespace

std::size_t RunReport::ranCount() const {
  std::size_t n = 0;
  for (const DvfsReport& r : fus) {
    if (r.status.ok()) ++n;
  }
  return n;
}

std::string RunReport::toJson(const std::string& label) const {
  util::json::Writer json;
  json.beginObject().field("bench", "dvfs_closed_loop").field("label", label);
  json.key("fus").beginArray();
  for (const DvfsReport& report : fus) json.raw(report.toJson());
  return json.endArray().endObject().str();
}

util::Status validateCertificateForGrid(const verify::SafeTclkCertificate& cert,
                                        const core::OperatingGrid& grid) {
  if (!cert.certified) {
    return util::Status::invalidArgument(
        "certificate is not certified (MV004 found a counterexample); "
        "refusing adaptive mode");
  }
  if (!(cert.tclk_ps > 0.0) || !std::isfinite(cert.tclk_ps)) {
    return util::Status::invalidArgument(
        "certificate tclk_ps must be finite and > 0");
  }
  if (cert.v_lo > grid.v_start + kCornerEps ||
      cert.v_hi < grid.v_end - kCornerEps ||
      cert.t_lo > grid.t_start + kCornerEps ||
      cert.t_hi < grid.t_end - kCornerEps) {
    return util::Status::invalidArgument(
        "certificate operating box does not cover the stream grid; "
        "refusing adaptive mode");
  }
  return util::Status::okStatus();
}

RunReport runDvfs(std::span<const FuSetup> fus, const RunOptions& options,
                  util::ThreadPool& pool) {
  if (options.serve_port <= 0) {
    for (const FuSetup& fu : fus) {
      if (fu.model == nullptr || !fu.model->trained()) {
        throw std::invalid_argument(
            "runDvfs: in-process mode requires a trained model per FU");
      }
    }
  }
  RunReport run;
  run.fus.resize(fus.size());
  pool.parallelFor(fus.size(), [&](std::size_t i) {
    const FuSetup& fu = fus[i];
    const std::string slug(circuits::fuSlug(fu.kind));

    // Fallback clock gate: no usable certificate, no adaptive mode.
    util::Status cert_status = fu.cert_status;
    if (cert_status.ok()) {
      cert_status = validateCertificateForGrid(fu.cert, options.stream.grid);
    }
    if (!cert_status.ok()) {
      DvfsReport refused;
      refused.fu = slug;
      refused.status = cert_status;
      run.fus[i] = std::move(refused);
      return;
    }

    StreamOptions stream_options = options.stream;
    stream_options.kind = fu.kind;
    stream_options.seed = options.stream.seed + i;
    const WindowedStream stream = WindowedStream::generate(stream_options);

    std::unique_ptr<DelayBackend> backend;
    if (options.serve_port > 0) {
      ServeBackend::Options serve_options;
      serve_options.port = options.serve_port;
      serve_options.tclk_hint_ps = fu.cert.tclk_ps;
      backend = std::make_unique<ServeBackend>(slug, serve_options);
    } else {
      backend =
          std::make_unique<InProcessBackend>(*fu.model, slug, options.faults);
    }

    core::FuContext context(fu.kind);
    dta::DtaOptions dta_options;
    dta_options.keep_toggles = false;  // controller needs delays only
    const GroundTruth ground_truth = [&](const Window& w) {
      const dta::Workload workload = stream.windowWorkload(w);
      const dta::DtaTrace trace =
          context.characterize(w.corner, workload, dta_options);
      std::vector<double> delays;
      delays.reserve(trace.samples.size());
      for (const dta::DtaSample& s : trace.samples) {
        delays.push_back(s.delay_ps);
      }
      return delays;
    };

    run.fus[i] = runController(stream, *backend, fu.cert,
                               options.controller, ground_truth);
  });
  return run;
}

}  // namespace tevot::dvfs
