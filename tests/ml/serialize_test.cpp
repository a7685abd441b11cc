// Serialization round-trips (forests, single trees, k-NN, linear
// classifiers) and malformed-input rejection across every loader:
// wrong magic, version skew, kind/task mismatch, truncation.
#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "util/rng.hpp"

namespace tevot::ml {
namespace {

Dataset smallTask(std::uint64_t seed) {
  Dataset data;
  util::Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    const float x0 = static_cast<float>(rng.nextDouble());
    const float x1 = static_cast<float>(rng.nextDouble());
    const float row[2] = {x0, x1};
    data.append({row, 2}, (x0 > x1) ? 1.0f : 0.0f);
  }
  return data;
}

TEST(SerializeTest, ClassifierRoundTripPredictsIdentically) {
  const Dataset data = smallTask(41);
  RandomForestClassifier original;
  util::Rng rng(42);
  original.fit(data, ForestParams{}, rng);

  std::stringstream stream;
  saveForest(stream, original);
  const RandomForestClassifier loaded = loadForestClassifier(stream);
  ASSERT_EQ(loaded.trees().size(), original.trees().size());
  for (std::size_t r = 0; r < data.size(); ++r) {
    EXPECT_EQ(loaded.predict(data.x.row(r)),
              original.predict(data.x.row(r)));
    EXPECT_EQ(loaded.predictProbability(data.x.row(r)),
              original.predictProbability(data.x.row(r)));
  }
}

TEST(SerializeTest, RegressorRoundTripPredictsIdentically) {
  Dataset data;
  util::Rng rng(43);
  for (int i = 0; i < 150; ++i) {
    const float v = static_cast<float>(rng.nextDouble(0.0, 5.0));
    const float row[1] = {v};
    data.append({row, 1}, 2.0f * v);
  }
  RandomForestRegressor original;
  original.fit(data, ForestParams{}, rng);
  std::stringstream stream;
  saveForest(stream, original);
  const RandomForestRegressor loaded = loadForestRegressor(stream);
  for (std::size_t r = 0; r < data.size(); ++r) {
    EXPECT_EQ(loaded.predict(data.x.row(r)),
              original.predict(data.x.row(r)));
  }
}

TEST(SerializeTest, TaskMismatchRejected) {
  const Dataset data = smallTask(44);
  RandomForestClassifier classifier;
  util::Rng rng(45);
  classifier.fit(data, ForestParams{}, rng);
  std::stringstream stream;
  saveForest(stream, classifier);
  EXPECT_THROW(loadForestRegressor(stream), std::runtime_error);
}

TEST(SerializeTest, MalformedInputRejected) {
  {
    std::istringstream bad("not-a-forest v1 classifier 1");
    EXPECT_THROW(loadForestClassifier(bad), std::runtime_error);
  }
  {
    std::istringstream bad("tevot-forest v2 classifier 1");
    EXPECT_THROW(loadForestClassifier(bad), std::runtime_error);
  }
  {
    // Truncated node list.
    std::istringstream bad("tevot-forest v1 classifier 1\ntree 2\n"
                           "-1 0 -1 -1 1.0\n");
    EXPECT_THROW(loadForestClassifier(bad), std::runtime_error);
  }
  {
    // Child index out of range.
    std::istringstream bad("tevot-forest v1 classifier 1\ntree 1\n"
                           "0 0.5 5 6 0\n");
    EXPECT_THROW(loadForestClassifier(bad), std::runtime_error);
  }
}

TEST(SerializeTest, CyclicSharedAndUnreachableTreesRejected) {
  const char* trees[] = {
      "tree 1\n0 0.5 0 0 0\n",  // node 0 is its own child
      "tree 3\n0 0.5 1 2 0\n1 0.5 0 2 0\n-1 0 -1 -1 1\n",  // back edge
      "tree 2\n0 0.5 1 1 0\n-1 0 -1 -1 1\n",  // one child, two parents
      "tree 2\n-1 0 -1 -1 1\n-1 0 -1 -1 2\n",  // node 1 unreachable
  };
  for (const char* tree : trees) {
    std::istringstream forest(std::string("tevot-forest v1 regressor 1\n") +
                              tree);
    EXPECT_THROW(loadForestRegressor(forest), std::runtime_error) << tree;
    std::istringstream single(std::string("tevot-tree v1\n") + tree);
    EXPECT_THROW(loadTree(single), std::runtime_error) << tree;
  }
  // The in-memory check applies the same rule before a serving swap.
  DecisionTree self_loop;
  self_loop.setNodes({{0, 0.5f, 0, 0, 0.0f}});
  const util::Status status = validateForestStructure({&self_loop, 1}, 1);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message.find("two parents"), std::string::npos)
      << status.message;
}

TEST(SerializeTest, HugeCountsOnShortInputFailAsTruncation) {
  // 2^62 nodes or trees promised, a few bytes present: the loader
  // must report truncation, not try to allocate for the count.
  const char* payloads[] = {
      "tevot-forest v1 regressor 1\ntree 4611686018427387904\n"
      "-1 0 -1 -1 1\n",
      "tevot-forest v1 regressor 4611686018427387904\ntree 1\n"
      "-1 0 -1 -1 1\n",
  };
  for (const char* payload : payloads) {
    std::istringstream is(payload);
    EXPECT_THROW(loadForestRegressor(is), std::runtime_error) << payload;
  }
}

TEST(SerializeTest, SingleTreeRoundTripIsByteIdentical) {
  const Dataset data = smallTask(48);
  DecisionTree original;
  util::Rng rng(49);
  original.fit(data, TreeTask::kClassification, TreeParams{}, rng);

  std::ostringstream first;
  saveTree(first, original);
  std::istringstream stored(first.str());
  const DecisionTree loaded = loadTree(stored);
  std::ostringstream second;
  saveTree(second, loaded);
  EXPECT_EQ(first.str(), second.str());
  for (std::size_t r = 0; r < data.size(); ++r) {
    EXPECT_EQ(loaded.predict(data.x.row(r)),
              original.predict(data.x.row(r)));
  }
}

TEST(SerializeTest, KnnRoundTripIsByteIdentical) {
  const Dataset data = smallTask(50);
  KnnClassifier original(3);
  original.fit(data);

  std::ostringstream first;
  saveKnn(first, original);
  std::istringstream stored(first.str());
  const KnnClassifier loaded = loadKnn(stored);
  EXPECT_EQ(loaded.k(), 3);
  std::ostringstream second;
  saveKnn(second, loaded);
  EXPECT_EQ(first.str(), second.str());
  for (std::size_t r = 0; r < data.size(); ++r) {
    EXPECT_EQ(loaded.predict(data.x.row(r)),
              original.predict(data.x.row(r)));
  }
}

TEST(SerializeTest, LinearRoundTripsAreByteIdentical) {
  const Dataset data = smallTask(51);
  LogisticRegression logistic;
  logistic.fit(data);
  LinearSvm svm;
  svm.fit(data);

  std::ostringstream logistic_first;
  saveLinear(logistic_first, logistic);
  std::istringstream logistic_stored(logistic_first.str());
  const LogisticRegression logistic_loaded = loadLogistic(logistic_stored);
  std::ostringstream logistic_second;
  saveLinear(logistic_second, logistic_loaded);
  EXPECT_EQ(logistic_first.str(), logistic_second.str());

  std::ostringstream svm_first;
  saveLinear(svm_first, svm);
  std::istringstream svm_stored(svm_first.str());
  const LinearSvm svm_loaded = loadSvm(svm_stored);
  std::ostringstream svm_second;
  saveLinear(svm_second, svm_loaded);
  EXPECT_EQ(svm_first.str(), svm_second.str());

  for (std::size_t r = 0; r < data.size(); ++r) {
    EXPECT_EQ(logistic_loaded.predict(data.x.row(r)),
              logistic.predict(data.x.row(r)));
    EXPECT_EQ(logistic_loaded.predictProbability(data.x.row(r)),
              logistic.predictProbability(data.x.row(r)));
    EXPECT_EQ(svm_loaded.predict(data.x.row(r)),
              svm.predict(data.x.row(r)));
  }
}

TEST(SerializeTest, LinearKindMismatchRejected) {
  const Dataset data = smallTask(52);
  LogisticRegression logistic;
  logistic.fit(data);
  std::ostringstream stream;
  saveLinear(stream, logistic);
  std::istringstream as_svm(stream.str());
  EXPECT_THROW(loadSvm(as_svm), std::runtime_error);
}

TEST(SerializeTest, TreeMalformedInputRejected) {
  {
    std::istringstream bad("not-a-tree v1\ntree 1\n-1 0 -1 -1 1\n");
    EXPECT_THROW(loadTree(bad), std::runtime_error);
  }
  {
    std::istringstream bad("tevot-tree v2\ntree 1\n-1 0 -1 -1 1\n");
    EXPECT_THROW(loadTree(bad), std::runtime_error);
  }
  {
    // Empty tree (zero nodes).
    std::istringstream bad("tevot-tree v1\ntree 0\n");
    EXPECT_THROW(loadTree(bad), std::runtime_error);
  }
  {
    // Truncated: header promises one node, body has none.
    std::istringstream bad("tevot-tree v1\ntree 1\n");
    EXPECT_THROW(loadTree(bad), std::runtime_error);
  }
}

TEST(SerializeTest, KnnMalformedInputRejected) {
  {
    std::istringstream bad("tevot-forest v1 3 1 1\n");
    EXPECT_THROW(loadKnn(bad), std::runtime_error);
  }
  {
    std::istringstream bad("tevot-knn v9 3 1 1\n");
    EXPECT_THROW(loadKnn(bad), std::runtime_error);
  }
  {
    // Degenerate k.
    std::istringstream bad(
        "tevot-knn v1 0 1 1\nmean 0\ninvstd 1\n0.5 1\n");
    EXPECT_THROW(loadKnn(bad), std::runtime_error);
  }
  {
    // Scaler line truncated (one value promised two columns).
    std::istringstream bad(
        "tevot-knn v1 3 1 2\nmean 0\ninvstd 1 1\n0.5 0.5 1\n");
    EXPECT_THROW(loadKnn(bad), std::runtime_error);
  }
  {
    // Training rows truncated (two promised, one present).
    std::istringstream bad(
        "tevot-knn v1 3 2 1\nmean 0\ninvstd 1\n0.5 1\n");
    EXPECT_THROW(loadKnn(bad), std::runtime_error);
  }
}

TEST(SerializeTest, LinearMalformedInputRejected) {
  {
    std::istringstream bad("tevot-knn v1 logistic 2\n");
    EXPECT_THROW(loadLogistic(bad), std::runtime_error);
  }
  {
    std::istringstream bad("tevot-linear v2 logistic 2\n");
    EXPECT_THROW(loadLogistic(bad), std::runtime_error);
  }
  {
    // Zero columns.
    std::istringstream bad("tevot-linear v1 logistic 0\nweights\n");
    EXPECT_THROW(loadLogistic(bad), std::runtime_error);
  }
  {
    // Missing bias line.
    std::istringstream bad(
        "tevot-linear v1 logistic 2\nweights 1 2\nmean 0 0\n"
        "invstd 1 1\n");
    EXPECT_THROW(loadLogistic(bad), std::runtime_error);
  }
  {
    // Truncated weights.
    std::istringstream bad(
        "tevot-linear v1 svm 3\nweights 1 2\nbias 0\nmean 0 0 0\n"
        "invstd 1 1 1\n");
    EXPECT_THROW(loadSvm(bad), std::runtime_error);
  }
}

TEST(SerializeTest, FileRoundTrip) {
  const Dataset data = smallTask(46);
  RandomForestClassifier original;
  util::Rng rng(47);
  original.fit(data, ForestParams{}, rng);
  const std::string path = ::testing::TempDir() + "/tevot_forest.txt";
  saveForestFile(path, original);
  const RandomForestClassifier loaded = loadForestClassifierFile(path);
  EXPECT_EQ(loaded.trees().size(), original.trees().size());
  std::remove(path.c_str());
  EXPECT_THROW(loadForestClassifierFile(path), std::runtime_error);
}

}  // namespace
}  // namespace tevot::ml
