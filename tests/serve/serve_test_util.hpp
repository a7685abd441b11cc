// Shared fixture for the serve tests: a tiny-but-real int_add model
// pair trained once per test binary (A is saved into the model
// directory; B is a differently-seeded model for hot-reload tests),
// and a self-removing scratch directory.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "tevot/model.hpp"
#include "tevot/pipeline.hpp"

namespace tevot::serve_test {

struct ServeTestModels {
  core::TevotModel model_a;
  core::TevotModel model_b;
  std::string dir;  ///< holds int_add.model == model_a initially

  ServeTestModels(const ServeTestModels&) = delete;
  ServeTestModels& operator=(const ServeTestModels&) = delete;
  ServeTestModels() {
    core::FuContext context(circuits::FuKind::kIntAdd);
    util::Rng rng(4242);
    std::vector<dta::DtaTrace> traces;
    for (const liberty::Corner corner :
         {liberty::Corner{0.85, 25.0}, liberty::Corner{1.00, 75.0}}) {
      traces.push_back(context.characterize(
          corner, dta::randomWorkloadFor(context.kind(), 100, rng)));
    }
    core::TevotConfig config;
    config.forest.n_trees = 4;
    util::Rng rng_a(1);
    util::Rng rng_b(2);
    model_a = core::TevotModel(config);
    model_a.train(traces, rng_a);
    model_b = core::TevotModel(config);
    model_b.train(traces, rng_b);
    const std::filesystem::path path =
        std::filesystem::path(testing::TempDir()) /
        ("tevot_serve_models_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
    dir = path.string();
    model_a.save(modelPath());
  }
  /// The model directory goes when the test binary exits.
  ~ServeTestModels() {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }

  std::string modelPath() const { return dir + "/int_add.model"; }
};

/// A fresh, empty directory under testing::TempDir(), removed with the
/// object: declare it before anything that reads the directory.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(testing::TempDir() + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

inline const ServeTestModels& serveTestModels() {
  static const ServeTestModels models;
  return models;
}

}  // namespace tevot::serve_test
