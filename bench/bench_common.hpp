// Shared experiment harness for the reproduction benches.
//
// Encapsulates the paper's experimental protocol (Sec. V-A):
//  * per FU: a random training workload plus application workloads
//    profiled from the image filters (training slice = the paper's
//    "5% randomly-picked images", test slice = the rest);
//  * TEVoT / TEVoT-NH trained and Delay-/TER-based calibrated on the
//    *training* traces (random + training-slice app data);
//  * per (condition, dataset): base clock = the dataset's fastest
//    error-free clock (max dynamic delay of its training-side trace),
//    evaluated at 5/10/15% speedups.
//
// Scales are reduced by default so the whole bench suite runs in
// minutes; TEVOT_FULL=1 restores paper-sized sweeps, and the
// TEVOT_* variables below override individual knobs.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/profile.hpp"
#include "apps/synth_images.hpp"
#include "dta/dta.hpp"
#include "tevot/evaluate.hpp"
#include "tevot/operating_grid.hpp"
#include "tevot/pipeline.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

namespace tevot::bench {

/// Upper bounds of the scale knobs: far above paper scale (2000 cycles
/// per corner, 12 images of 64x64), low enough that a typo cannot ask
/// for an unbounded allocation.
inline constexpr double kMaxScaleCycles = 1e6;
inline constexpr double kMaxScaleImages = 1000;
inline constexpr double kMaxScaleImageSize = 4096;

struct BenchScale {
  std::vector<liberty::Corner> corners;  ///< evaluation conditions
  std::size_t train_cycles_per_corner;   ///< random training ops/corner
  std::size_t test_cycles_per_corner;    ///< random test ops/corner
  std::size_t app_train_cycles;          ///< app training ops/corner
  std::size_t app_test_cycles;           ///< app test ops/corner
  std::size_t image_count;               ///< synthetic image set size
  int image_size;                        ///< image width == height
  /// Characterization/training parallelism (thread count including
  /// the main thread). Default 1; 0 selects the hardware count.
  std::size_t jobs = 1;

  /// Reads the default or TEVOT_FULL-scaled configuration, applies
  /// the environment overrides (applyOverrides), then a `--jobs N`
  /// command-line flag (also TEVOT_JOBS) when argv is given. A bad
  /// override or jobs value exits with status 2 (usage).
  static BenchScale fromEnvironment(int argc = 0, char** argv = nullptr);

  /// Applies the TEVOT_GRID_V/T, TEVOT_{TRAIN,TEST,APP_TRAIN,
  /// APP_TEST}_CYCLES, TEVOT_IMAGES and TEVOT_IMAGE_SIZE overrides,
  /// each read through `env` (null or empty = unset). False, with the
  /// offending knob and value in `*bad`, when a value is not a whole
  /// number in its range: [1, grid points] for the grid counts (a
  /// subsampled grid needs both), [1, kMaxScaleCycles] for cycles,
  /// [1, kMaxScaleImages] images and [1, kMaxScaleImageSize] pixels.
  bool applyOverrides(const std::function<const char*(const char*)>& env,
                      std::string* bad);

  /// Sets `*jobs` from `env` (TEVOT_JOBS; null or empty = unset), then
  /// from each `--jobs N` / `--jobs=N` in argv. False, before any
  /// thread starts, when a value is not a whole number in
  /// [0, util::kMaxJobs].
  static bool parseJobs(int argc, char** argv, const char* env,
                        std::size_t* jobs);
};

/// Named dataset: a training-side stream (defines base clocks and
/// feeds model training) and a held-out test stream.
struct DatasetStreams {
  std::string name;
  dta::Workload train;
  dta::Workload test;
};

/// Builds the paper's three datasets for one FU: random_data,
/// sobel_data, gauss_data.
std::vector<DatasetStreams> buildDatasets(circuits::FuKind kind,
                                          const BenchScale& scale,
                                          util::Rng& rng);

/// Characterized train/test traces for one dataset across corners.
struct DatasetTraces {
  std::string name;
  std::vector<dta::DtaTrace> train;  ///< one per corner
  std::vector<dta::DtaTrace> test;   ///< one per corner
};

/// Runs DTA for every dataset at every corner, fanning the
/// (dataset x corner x train/test) grid out on `pool`. Traces come
/// back in input order, bit-identical for any thread count.
std::vector<DatasetTraces> characterizeAll(
    core::FuContext& context, const std::vector<DatasetStreams>& datasets,
    const BenchScale& scale, util::ThreadPool& pool);

/// Pools every dataset's training traces (the paper's random + 5%
/// images training set).
std::vector<dta::DtaTrace> pooledTrainingTraces(
    const std::vector<DatasetTraces>& traces);

/// Accuracy of one model on one dataset, averaged over all corners
/// and the three clock speedups, with per-(corner,dataset) base
/// clocks from the dataset's training trace.
core::EvalOutcome evaluateDataset(core::ErrorModel& model,
                                  const DatasetTraces& traces);

/// Prints a right-aligned percentage cell.
std::string formatPercent(double fraction, int width = 8);

/// Writes `<dir>/<bench_name>.json` (dir from TEVOT_BENCH_OUT,
/// default "bench_out"): one compact JSON object recording wall-clock
/// seconds, the thread count and any extra metrics, so the speedup
/// trajectory stays visible across PRs.
void writeBenchJson(
    const std::string& bench_name, std::size_t jobs, double wall_seconds,
    const std::vector<std::pair<std::string, double>>& metrics = {});

}  // namespace tevot::bench
