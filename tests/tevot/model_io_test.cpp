// TevotModel persistence robustness: the save path must never leave a
// truncated model behind (write-temp + flush-check + atomic rename,
// with io.open/io.write fault injection), and the load path must
// reject every corrupt-file shape with a typed error — truncation,
// garbage, trailing bytes, cyclic trees, and forests inconsistent with
// the header's encoder width. A saved file ends with an end line, so
// every proper prefix of it is an error.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tevot/model.hpp"
#include "tevot/pipeline.hpp"
#include "util/fault_injection.hpp"
#include "util/status.hpp"

namespace tevot::core {
namespace {

TevotModel trainedModel(bool include_history = true) {
  FuContext context(circuits::FuKind::kIntAdd);
  util::Rng rng(71);
  std::vector<dta::DtaTrace> traces;
  for (const liberty::Corner corner :
       {liberty::Corner{0.81, 0.0}, liberty::Corner{1.00, 100.0}}) {
    traces.push_back(context.characterize(
        corner, dta::randomWorkloadFor(context.kind(), 150, rng)));
  }
  TevotConfig config;
  config.include_history = include_history;
  config.forest.n_trees = 3;
  config.forest.tree.max_depth = 6;
  TevotModel model(config);
  model.train(traces, rng);
  return model;
}

std::string readFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream text;
  text << is.rdbuf();
  return text.str();
}

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
}

/// Temp paths carry the pid: ctest runs each test of this suite as its
/// own process, concurrently under -j, and SetUpTestSuite runs in every
/// one of them — a shared filename would let one process's teardown
/// race another's save/load.
std::string pidScopedPath(const std::string& name) {
  return ::testing::TempDir() + "/model_io_test." +
         std::to_string(::getpid()) + "." + name;
}

/// No `<file>.tmp*` sibling left behind (the atomic-save temp name is
/// `<path>.tmp.<pid>`).
bool tempFileLeaked(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp";
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

util::Status loadStatus(const std::string& path) {
  try {
    TevotModel::load(path);
  } catch (const util::StatusError& error) {
    return error.status();
  }
  return util::Status::okStatus();
}

class ModelIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new TevotModel(trainedModel());
    path_ = pidScopedPath("suite.model");
    model_->save(path_);
    bytes_ = readFile(path_);
    ASSERT_FALSE(bytes_.empty());
  }
  static void TearDownTestSuite() {
    std::remove(path_.c_str());
    delete model_;
    model_ = nullptr;
  }

  static TevotModel* model_;
  static std::string path_;
  static std::string bytes_;  ///< a known-good saved model
};

TevotModel* ModelIoTest::model_ = nullptr;
std::string ModelIoTest::path_;
std::string ModelIoTest::bytes_;

TEST_F(ModelIoTest, RoundTripPredictsBitIdentically) {
  const TevotModel loaded = TevotModel::load(path_);
  EXPECT_TRUE(loaded.validateForServing().ok());
  const liberty::Corner corner{0.9, 40.0};
  std::vector<DelayQuery> queries;
  for (std::uint32_t i = 0; i < 16; ++i) {
    queries.push_back({i * 2654435761u, ~i, i, i + 1, corner});
  }
  std::vector<double> from_loaded(queries.size());
  loaded.predictDelayBatch(queries, from_loaded);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const DelayQuery& q = queries[i];
    EXPECT_EQ(from_loaded[i], model_->predictDelay(q.a, q.b, q.prev_a,
                                                   q.prev_b, q.corner));
  }
}

TEST_F(ModelIoTest, MissingFileIsTypedIoError) {
  const util::Status status =
      loadStatus(::testing::TempDir() + "/does_not_exist.model");
  EXPECT_EQ(status.code, util::StatusCode::kIoError);
  EXPECT_NE(status.message.find("does_not_exist.model"),
            std::string::npos);
}

TEST_F(ModelIoTest, TruncationMatrixAllRejected) {
  // Cutting the file anywhere — mid-header, mid-forest, mid-node —
  // must yield a parse error, never a silently smaller model.
  const std::string path = ::testing::TempDir() + "/truncated.model";
  for (const double fraction : {0.02, 0.1, 0.5, 0.9, 0.99}) {
    const auto cut =
        static_cast<std::size_t>(bytes_.size() * fraction);
    writeFile(path, bytes_.substr(0, cut));
    const util::Status status = loadStatus(path);
    EXPECT_EQ(status.code, util::StatusCode::kParseError)
        << "cut at " << cut << " of " << bytes_.size();
  }
  std::remove(path.c_str());
}

TEST_F(ModelIoTest, GarbageAndWrongMagicRejected) {
  const std::string path = ::testing::TempDir() + "/garbage.model";
  const char* cases[] = {
      "",                                  // empty file
      "not a model at all",                // no header
      "tevot-model v3 history 1 split 2\n",  // unknown version
      "tevot-model v2 hist 1 split 2\n",     // wrong key
      "tevot-model v2 history X split 2\n",  // non-numeric flag
      "tevot-model v2 history 1 splt 2\n",   // wrong key
      "tevot-model v2 history 1 split 1\n",  // split size below 2
      "tevot-model v2 history 1 split\n",    // missing split size
  };
  for (const char* content : cases) {
    writeFile(path, content);
    const util::Status status = loadStatus(path);
    EXPECT_EQ(status.code, util::StatusCode::kParseError)
        << "'" << content << "'";
  }
  std::remove(path.c_str());
}

TEST_F(ModelIoTest, FormatV1IsTypedParseErrorNamingTheVersion) {
  // A v1 file: the same forest under the old header, with no end line.
  const std::string v1 = "tevot-model v1 history 1" +
                         bytes_.substr(bytes_.find('\n'),
                                       bytes_.rfind("end\n") -
                                           bytes_.find('\n'));
  const std::string path = pidScopedPath("v1.model");
  writeFile(path, v1);
  const util::Status status = loadStatus(path);
  EXPECT_EQ(status.code, util::StatusCode::kParseError);
  EXPECT_NE(status.message.find("'v1'"), std::string::npos)
      << status.message;
  std::remove(path.c_str());
}

TEST_F(ModelIoTest, HeaderRecordsTheChosenSplitSize) {
  const int split = model_->splitSize();
  EXPECT_NE(std::find(std::begin(kSplitLadder), std::end(kSplitLadder),
                      split),
            std::end(kSplitLadder));
  EXPECT_EQ(bytes_.substr(0, bytes_.find('\n')),
            "tevot-model v2 history 1 split " + std::to_string(split));
  EXPECT_EQ(TevotModel::load(path_).splitSize(), split);
}

TEST_F(ModelIoTest, TrailingBytesRejected) {
  const std::string path = ::testing::TempDir() + "/trailing.model";
  for (const char* junk :
       {"x", "\nextra", "\ntevot-model v2 history 1 split 2\n", " 42",
        "end\n"}) {
    writeFile(path, bytes_ + junk);
    const util::Status status = loadStatus(path);
    EXPECT_EQ(status.code, util::StatusCode::kParseError) << junk;
    EXPECT_NE(status.message.find("trailing"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST_F(ModelIoTest, ForestInconsistentWithHeaderRejected) {
  // The model was trained WITH history (130 features). Flipping the
  // header flag to 0 claims a 66-feature encoder; the forest's split
  // indices now exceed the encoder width and must be rejected at
  // load, not discovered as an out-of-bounds read at predict time.
  std::string flipped = bytes_;
  flipped.replace(flipped.find(" history 1 "), 11, " history 0 ");
  ASSERT_NE(flipped, bytes_);
  const std::string path = ::testing::TempDir() + "/flipped.model";
  writeFile(path, flipped);
  const util::Status status = loadStatus(path);
  EXPECT_EQ(status.code, util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message.find("history"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ModelIoTest, CyclicTreeIsTypedParseError) {
  // Node 0 is its own child: the tree walk would never reach a leaf.
  const std::string path = ::testing::TempDir() + "/cyclic.model";
  for (const char* tree : {"tree 1\n0 0.5 0 0 0\n",
                           "tree 2\n0 0.5 1 1 0\n-1 0 -1 -1 1\n"}) {
    writeFile(path, std::string("tevot-model v2 history 1 split 2\n"
                                "tevot-forest v1 regressor 1\n") +
                        tree + "end\n");
    const util::Status status = loadStatus(path);
    EXPECT_EQ(status.code, util::StatusCode::kParseError) << tree;
    EXPECT_NE(status.message.find("two parents"), std::string::npos)
        << status.message;
  }
  std::remove(path.c_str());
}

/// `bytes` with the `field`-th space-separated token of line `line`
/// (0-based) replaced by `token`.
std::string withToken(const std::string& bytes, std::size_t line,
                      std::size_t field, const std::string& token) {
  std::size_t start = 0;
  for (std::size_t l = 0; l < line; ++l) start = bytes.find('\n', start) + 1;
  for (std::size_t f = 0; f < field; ++f) start = bytes.find(' ', start) + 1;
  const std::size_t end = bytes.find_first_of(" \n", start);
  return bytes.substr(0, start) + token + bytes.substr(end);
}

TEST_F(ModelIoTest, EveryTruncationAndMutationIsTypedErrorOrIdentical) {
  const std::string path = pidScopedPath("mutated.model");
  const auto load = [&](const std::string& content, TevotModel* out) {
    writeFile(path, content);
    try {
      *out = TevotModel::load(path);
    } catch (const util::StatusError& error) {
      return error.status();
    }
    return util::Status::okStatus();
  };
  TevotModel original;
  ASSERT_TRUE(load(bytes_, &original).ok());
  ASSERT_EQ(bytes_.back(), '\n');

  ASSERT_TRUE(bytes_.ends_with("\nend\n"));

  // Every proper prefix, down to the one that lacks only the final
  // newline: a cut inside the last number ("245.12" of "245.123459")
  // is a valid shorter number, but the end line is then missing.
  for (std::size_t cut = 0; cut < bytes_.size(); ++cut) {
    TevotModel loaded;
    const util::Status status = load(bytes_.substr(0, cut), &loaded);
    EXPECT_EQ(status.code, util::StatusCode::kParseError)
        << "cut at " << cut << " of " << bytes_.size();
  }

  // Line 3 is the root of tree 0 (a split), the line before the end
  // line a leaf. Node fields: feature threshold left right value.
  std::size_t end_line = 0;
  for (const char c : bytes_) end_line += c == '\n' ? 1 : 0;
  end_line -= 1;
  const std::size_t leaf_line = end_line - 1;
  const struct {
    std::size_t line, field;
    std::string token;
    util::StatusCode code;
  } mutations[] = {
      {3, 1, "nan", util::StatusCode::kParseError},
      {3, 1, "inf", util::StatusCode::kParseError},
      {3, 1, "-nan", util::StatusCode::kParseError},
      {leaf_line, 4, "nan", util::StatusCode::kParseError},
      {leaf_line, 4, "-inf", util::StatusCode::kParseError},
      {leaf_line, 4, "-nan", util::StatusCode::kParseError},
      {3, 0, "+1", util::StatusCode::kParseError},
      {3, 1, "+0.5", util::StatusCode::kParseError},
      {2, 1, "+7", util::StatusCode::kParseError},
      {3, 0, "2147483648", util::StatusCode::kParseError},
      {0, 1, "v1", util::StatusCode::kParseError},
      {0, 5, "0", util::StatusCode::kParseError},
      {0, 5, "2.5", util::StatusCode::kParseError},
      {end_line, 0, "ends", util::StatusCode::kParseError},
      {3, 2, "-2147483649", util::StatusCode::kParseError},
      {3, 1, "1e50", util::StatusCode::kParseError},
      {leaf_line, 4, "-1e50", util::StatusCode::kParseError},
      {2, 1, "4611686018427387904", util::StatusCode::kParseError},
      {1, 3, "4611686018427387904", util::StatusCode::kParseError},
      {3, 1, "0.5x", util::StatusCode::kParseError},
      {3, 0, "1,", util::StatusCode::kParseError},
      {leaf_line, 4, "1.0q", util::StatusCode::kParseError},
      {3, 2, "0", util::StatusCode::kParseError},  // root is its own child
      // Sound trees, but a split past the encoder's features.
      {3, 0, std::to_string(original.encoder().featureCount()),
       util::StatusCode::kInvalidArgument},
  };
  for (const auto& mutation : mutations) {
    const std::string mutated =
        withToken(bytes_, mutation.line, mutation.field, mutation.token);
    ASSERT_NE(mutated, bytes_);
    TevotModel loaded;
    const util::Status status = load(mutated, &loaded);
    EXPECT_EQ(status.code, mutation.code)
        << "line " << mutation.line << " field " << mutation.field << " '"
        << mutation.token << "': " << status.toString();
  }
  for (const std::string& junk :
       {std::string("x"), std::string("0"), std::string("\n-1 0 -1 -1 1\n"),
        std::string(1, '\0')}) {
    TevotModel loaded;
    EXPECT_EQ(load(bytes_ + junk, &loaded).code,
              util::StatusCode::kParseError)
        << "'" << junk << "'";
  }
  std::remove(path.c_str());
}

TEST_F(ModelIoTest, SaveWriteFaultKeepsPreviousContents) {
  const std::string path = pidScopedPath("atomic.model");
  writeFile(path, "previous contents");
  util::FaultInjector faults;
  util::FaultPlan plan;
  plan.points = {"io.write"};
  plan.rate = 1.0;
  plan.fail_attempts = 1000;
  faults.arm(plan);
  EXPECT_THROW(model_->save(path, &faults), util::StatusError);
  // The destination is untouched and no temp file leaks.
  EXPECT_EQ(readFile(path), "previous contents");
  EXPECT_FALSE(tempFileLeaked(path));
  std::remove(path.c_str());
}

TEST_F(ModelIoTest, SaveOpenFaultIsTypedIoError) {
  const std::string path = pidScopedPath("openfault.model");
  util::FaultInjector faults;
  util::FaultPlan plan;
  plan.points = {"io.open"};
  plan.rate = 1.0;
  plan.fail_attempts = 1000;
  faults.arm(plan);
  try {
    model_->save(path, &faults);
    FAIL() << "save must throw under an io.open fault";
  } catch (const util::StatusError& error) {
    EXPECT_EQ(error.status().code, util::StatusCode::kIoError);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(tempFileLeaked(path));
}

TEST_F(ModelIoTest, SaveToUnwritableDirectoryIsTypedIoError) {
  const util::Status status = [&] {
    try {
      model_->save("/nonexistent-dir/sub/model.bin");
    } catch (const util::StatusError& error) {
      return error.status();
    }
    return util::Status::okStatus();
  }();
  EXPECT_EQ(status.code, util::StatusCode::kIoError);
  EXPECT_NE(status.message.find("/nonexistent-dir/sub/model.bin"),
            std::string::npos);
}

TEST_F(ModelIoTest, SaveOverwritesAtomicallyOnSuccess) {
  const std::string path = pidScopedPath("overwrite.model");
  writeFile(path, "stale");
  model_->save(path);
  EXPECT_EQ(readFile(path), bytes_);
  EXPECT_FALSE(tempFileLeaked(path));
  std::remove(path.c_str());
}

TEST_F(ModelIoTest, ValidateForServingProbesGridExtremes) {
  // A freshly trained model must clear the corner-extreme canaries
  // (and the flat-vs-scalar cross-check) for both encoder layouts.
  EXPECT_TRUE(model_->validateForServing().ok());
  const TevotModel no_history = trainedModel(false);
  EXPECT_TRUE(no_history.validateForServing().ok());
  EXPECT_FALSE(TevotModel().validateForServing().ok());
}

}  // namespace
}  // namespace tevot::core
