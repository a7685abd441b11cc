#include "dvfs/stream.hpp"

#include <algorithm>

namespace tevot::dvfs {

namespace {

/// Clamped random-walk step over [0, points): uniform in
/// [-kMaxCornerStep, +kMaxCornerStep], clamped into range.
int walkIndex(int index, int points, util::Rng& rng) {
  if (points <= 1) return 0;
  const int step =
      static_cast<int>(rng.nextInRange(-kMaxCornerStep, kMaxCornerStep));
  return std::clamp(index + step, 0, points - 1);
}

}  // namespace

WindowedStream WindowedStream::generate(const StreamOptions& options) {
  WindowedStream stream;
  stream.options_ = options;
  util::Rng rng(options.seed);

  stream.workload_ = dta::randomWorkloadFor(options.kind, options.cycles,
                                            rng, "dvfs_stream");

  const std::size_t transitions =
      options.cycles > 1 ? options.cycles - 1 : 0;
  const std::size_t window =
      std::max<std::size_t>(1, options.window);

  const int v_points = std::max(1, options.grid.voltagePoints());
  const int t_points = std::max(1, options.grid.temperaturePoints());
  // Start mid-grid; each window takes one walk step per axis.
  int v_index = v_points / 2;
  int t_index = t_points / 2;

  for (std::size_t first = 1; first <= transitions; first += window) {
    Window w;
    w.first = first;
    w.last = std::min(first + window, transitions + 1);
    w.corner = liberty::Corner{
        options.grid.v_start +
            options.grid.v_step * static_cast<double>(v_index),
        options.grid.t_start +
            options.grid.t_step * static_cast<double>(t_index)};
    stream.windows_.push_back(w);
    v_index = walkIndex(v_index, v_points, rng);
    t_index = walkIndex(t_index, t_points, rng);
  }
  return stream;
}

dta::Workload WindowedStream::windowWorkload(const Window& w) const {
  dta::Workload out;
  out.name = workload_.name + "/w" + std::to_string(w.first);
  out.ops.reserve(w.cycles() + 1);
  out.ops.push_back(workload_.ops[w.first - 1]);
  for (std::size_t t = w.first; t < w.last; ++t) {
    out.ops.push_back(workload_.ops[t]);
  }
  return out;
}

}  // namespace tevot::dvfs
