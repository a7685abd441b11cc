#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/json.hpp"

namespace tevot::bench {

BenchScale BenchScale::fromEnvironment(int argc, char** argv) {
  const bool full = util::fullScale();
  BenchScale scale;
  const auto grid = core::OperatingGrid::paper();
  if (full) {
    scale.corners = grid.corners();  // all 100 Table I conditions
    scale.train_cycles_per_corner = 2000;
    scale.test_cycles_per_corner = 2000;
    scale.app_train_cycles = 1000;
    scale.app_test_cycles = 2000;
    scale.image_count = 12;
    scale.image_size = 64;
  } else {
    scale.corners = grid.subsampled(3, 3);  // the Fig. 3 corner set
    scale.train_cycles_per_corner = 1500;
    scale.test_cycles_per_corner = 700;
    scale.app_train_cycles = 700;
    scale.app_test_cycles = 700;
    scale.image_count = 6;
    scale.image_size = 48;
  }
  std::string bad;
  if (!scale.applyOverrides([](const char* name) { return std::getenv(name); },
                            &bad)) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "bench",
                 bad.c_str());
    std::exit(2);
  }
  if (!parseJobs(argc, argv, std::getenv("TEVOT_JOBS"), &scale.jobs)) {
    std::fprintf(stderr,
                 "%s: --jobs / TEVOT_JOBS must be a whole number in "
                 "[0, %g]\n",
                 argc > 0 ? argv[0] : "bench", util::kMaxJobs);
    std::exit(2);
  }
  if (scale.jobs == 0) scale.jobs = util::ThreadPool::hardwareThreads();
  return scale;
}

bool BenchScale::applyOverrides(
    const std::function<const char*(const char*)>& env, std::string* bad) {
  // Reads knob `name` into `*value` when it is set and non-empty.
  const auto knob = [&](const char* name, double lo, double hi,
                        auto* value) {
    const char* text = env(name);
    if (text == nullptr || *text == '\0' ||
        util::parseNumber(text, lo, hi, value)) {
      return true;
    }
    char message[160];
    std::snprintf(message, sizeof(message),
                  "%s must be a whole number in [%g, %g], not '%s'", name,
                  lo, hi, text);
    *bad = message;
    return false;
  };
  const core::OperatingGrid grid = core::OperatingGrid::paper();
  int nv = 0;
  int nt = 0;
  if (!knob("TEVOT_GRID_V", 1, grid.voltagePoints(), &nv) ||
      !knob("TEVOT_GRID_T", 1, grid.temperaturePoints(), &nt) ||
      !knob("TEVOT_TRAIN_CYCLES", 1, kMaxScaleCycles,
            &train_cycles_per_corner) ||
      !knob("TEVOT_TEST_CYCLES", 1, kMaxScaleCycles,
            &test_cycles_per_corner) ||
      !knob("TEVOT_APP_TRAIN_CYCLES", 1, kMaxScaleCycles, &app_train_cycles) ||
      !knob("TEVOT_APP_TEST_CYCLES", 1, kMaxScaleCycles, &app_test_cycles) ||
      !knob("TEVOT_IMAGES", 1, kMaxScaleImages, &image_count) ||
      !knob("TEVOT_IMAGE_SIZE", 1, kMaxScaleImageSize, &image_size)) {
    return false;
  }
  // A subsampled grid needs both counts.
  if (nv > 0 && nt > 0) corners = grid.subsampled(nv, nt);
  return true;
}

bool BenchScale::parseJobs(int argc, char** argv, const char* env,
                           std::size_t* jobs) {
  const auto parse = [jobs](const char* text) {
    return util::parseNumber(text, 0, util::kMaxJobs, jobs);
  };
  if (env != nullptr && *env != '\0' && !parse(env)) return false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      if (!parse(argv[++i])) return false;
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      if (!parse(argv[i] + 7)) return false;
    }
  }
  return true;
}

std::vector<DatasetStreams> buildDatasets(circuits::FuKind kind,
                                          const BenchScale& scale,
                                          util::Rng& rng) {
  std::vector<DatasetStreams> datasets;

  DatasetStreams random_streams;
  random_streams.name = "random_data";
  random_streams.train = dta::randomWorkloadFor(
      kind, scale.train_cycles_per_corner, rng, "random_data");
  random_streams.test = dta::randomWorkloadFor(
      kind, scale.test_cycles_per_corner, rng, "random_data");
  datasets.push_back(std::move(random_streams));

  // Application datasets: profile the filters over the synthetic
  // image set. The paper trains on 5% of images and tests on the
  // rest; we slice the profiled stream the same way (the train slice
  // comes from the leading images, the test slice from the
  // remainder).
  apps::SynthImageParams image_params;
  image_params.width = scale.image_size;
  image_params.height = scale.image_size;
  const std::vector<apps::Image> images =
      apps::synthImageSet(scale.image_count, /*seed=*/0xbf1u, image_params);
  const std::size_t train_images = std::max<std::size_t>(1, images.size() / 6);
  const std::span<const apps::Image> train_span{images.data(), train_images};
  const std::span<const apps::Image> test_span{
      images.data() + train_images, images.size() - train_images};

  for (const apps::AppKind app : apps::kAllApps) {
    auto train_streams = apps::profileAppWorkloads(app, train_span);
    auto test_streams = apps::profileAppWorkloads(app, test_span);
    DatasetStreams streams;
    streams.name = train_streams[kind].name;
    streams.train =
        dta::resizeWorkload(train_streams[kind], scale.app_train_cycles);
    streams.test =
        dta::resizeWorkload(test_streams[kind], scale.app_test_cycles);
    datasets.push_back(std::move(streams));
  }
  return datasets;
}

std::vector<DatasetTraces> characterizeAll(
    core::FuContext& context, const std::vector<DatasetStreams>& datasets,
    const BenchScale& scale, util::ThreadPool& pool) {
  // Flatten the (dataset x corner x train/test) grid into one job
  // list, fan it out, then reassemble in the same order.
  std::vector<dta::CharacterizeJob> jobs;
  jobs.reserve(datasets.size() * scale.corners.size() * 2);
  for (const DatasetStreams& dataset : datasets) {
    for (const liberty::Corner& corner : scale.corners) {
      jobs.push_back(context.characterizeJob(corner, dataset.train));
      jobs.push_back(context.characterizeJob(corner, dataset.test));
    }
  }
  std::vector<dta::DtaTrace> results = dta::characterizeAll(jobs, pool);

  std::vector<DatasetTraces> all;
  all.reserve(datasets.size());
  std::size_t at = 0;
  for (const DatasetStreams& dataset : datasets) {
    DatasetTraces traces;
    traces.name = dataset.name;
    for (std::size_t c = 0; c < scale.corners.size(); ++c) {
      traces.train.push_back(std::move(results[at++]));
      traces.test.push_back(std::move(results[at++]));
    }
    all.push_back(std::move(traces));
  }
  return all;
}

std::vector<dta::DtaTrace> pooledTrainingTraces(
    const std::vector<DatasetTraces>& traces) {
  std::vector<dta::DtaTrace> pooled;
  for (const DatasetTraces& dataset : traces) {
    pooled.insert(pooled.end(), dataset.train.begin(), dataset.train.end());
  }
  return pooled;
}

core::EvalOutcome evaluateDataset(core::ErrorModel& model,
                                  const DatasetTraces& traces) {
  std::vector<core::EvalOutcome> outcomes;
  for (std::size_t c = 0; c < traces.test.size(); ++c) {
    const double base_clock = traces.train[c].baseClockPs();
    for (const double speedup : dta::kClockSpeedups) {
      outcomes.push_back(core::evaluateOnTrace(
          model, traces.test[c], dta::speedupClockPs(base_clock, speedup)));
    }
  }
  return core::mergeOutcomes(outcomes);
}

std::string formatPercent(double fraction, int width) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%*.2f%%", width - 1,
                fraction * 100.0);
  return buffer;
}

void writeBenchJson(
    const std::string& bench_name, std::size_t jobs, double wall_seconds,
    const std::vector<std::pair<std::string, double>>& metrics) {
  const std::filesystem::path dir =
      util::envString("TEVOT_BENCH_OUT", "bench_out");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path path = dir / (bench_name + ".json");
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "writeBenchJson: cannot open %s\n",
                 path.string().c_str());
    return;
  }
  util::json::Writer json;
  json.beginObject().field("bench", bench_name).field("jobs", jobs);
  json.field("wall_clock_s", wall_seconds);
  for (const auto& [key, value] : metrics) json.field(key, value);
  os << json.endObject().str() << "\n";
  std::printf("wrote %s (jobs=%zu, wall=%.2fs)\n", path.string().c_str(),
              jobs, wall_seconds);
}

}  // namespace tevot::bench
