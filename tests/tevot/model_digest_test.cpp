// Golden model bytes: an INT ADD model trained from a fixed workload
// and seed, with and without history, must save to exactly the bytes
// recorded here (as an FNV-1a digest). A change to the split search,
// the split-size ladder, the forest's seed splitting, the feature
// encoding or the model writer that moves any saved byte fails this
// test. A deliberate
// format change re-records the constants and says so.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "tevot/model.hpp"
#include "tevot/pipeline.hpp"

namespace tevot::core {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a of the saved bytes (format v2) of a default-configured (10
/// trees, every feature, unlimited depth, split size from the ladder)
/// INT ADD model trained on 160 cycles at each of three corners.
std::uint64_t savedModelDigest(bool include_history) {
  FuContext context(circuits::FuKind::kIntAdd);
  util::Rng rng(2020);
  std::vector<dta::DtaTrace> traces;
  for (const liberty::Corner corner :
       {liberty::Corner{0.81, 0.0}, liberty::Corner{0.90, 50.0},
        liberty::Corner{1.00, 100.0}}) {
    traces.push_back(context.characterize(
        corner, dta::randomWorkloadFor(context.kind(), 160, rng)));
  }
  TevotConfig config;
  config.include_history = include_history;
  TevotModel model(config);
  model.train(traces, rng);
  const std::string path = ::testing::TempDir() + "/model_digest_test." +
                           std::to_string(::getpid()) +
                           (include_history ? ".h" : ".nh");
  model.save(path);
  std::ifstream is(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(is),
                          std::istreambuf_iterator<char>()};
  std::remove(path.c_str());
  EXPECT_FALSE(bytes.empty());
  return fnv1a(bytes);
}

TEST(ModelDigestTest, IntAddWithHistorySavesGoldenBytes) {
  EXPECT_EQ(savedModelDigest(true), 0xb48a01c9335c3725ULL);
}

TEST(ModelDigestTest, IntAddWithoutHistorySavesGoldenBytes) {
  EXPECT_EQ(savedModelDigest(false), 0x30cefe00bc3f9a55ULL);
}

}  // namespace
}  // namespace tevot::core
