// Forest-regressor serialization (the model inside every TevotModel
// file): round-trips, and malformed-input rejection — wrong magic,
// version skew, task mismatch, truncation, unsound tree shapes.
#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/rng.hpp"
#include "util/status.hpp"

namespace tevot::ml {
namespace {

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
  std::istringstream classifier(
      "tevot-forest v1 classifier 1\ntree 1\n-1 0 -1 -1 1\n");
  EXPECT_THROW(loadForestRegressor(classifier), std::runtime_error);
}

TEST(SerializeTest, MalformedInputRejected) {
  for (const char* bad : {
           "not-a-forest v1 regressor 1\ntree 1\n-1 0 -1 -1 1\n",
           "tevot-forest v2 regressor 1\ntree 1\n-1 0 -1 -1 1\n",
           // Truncated node list.
           "tevot-forest v1 regressor 1\ntree 2\n-1 0 -1 -1 1.0\n",
           // Child index out of range.
           "tevot-forest v1 regressor 1\ntree 1\n0 0.5 5 6 0\n",
           // Bytes after the forest.
           "tevot-forest v1 regressor 1\ntree 1\n-1 0 -1 -1 1\nx\n",
       }) {
    std::istringstream is(bad);
    EXPECT_THROW(loadForestRegressor(is), std::runtime_error) << bad;
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
  Dataset data;
  util::Rng rng(48);
  for (int i = 0; i < 200; ++i) {
    const float row[2] = {static_cast<float>(rng.nextDouble()),
                          static_cast<float>(rng.nextDouble())};
    data.append({row, 2}, row[0] * 3.0f - row[1]);
  }
  DecisionTree tree;
  tree.fit(data, TreeTask::kRegression, TreeParams{}, rng);
  RandomForestRegressor original;
  original.setTrees({tree});

  std::ostringstream first;
  saveForest(first, original);
  std::istringstream stored(first.str());
  const RandomForestRegressor loaded = loadForestRegressor(stored);
  std::ostringstream second;
  saveForest(second, loaded);
  EXPECT_EQ(first.str(), second.str());
  for (std::size_t r = 0; r < data.size(); ++r) {
    EXPECT_EQ(loaded.predict(data.x.row(r)),
              original.predict(data.x.row(r)));
  }
}

TEST(SerializeTest, TreeMalformedInputRejected) {
  for (const char* tree : {
           "tre 1\n-1 0 -1 -1 1\n",
           "tree 0\n",  // empty tree
           "tree 1\n",  // header promises one node, body has none
           "tree -1\n-1 0 -1 -1 1\n",
           "tree 1\n-1 0 -1 -1\n",  // node line cut short
       }) {
    std::istringstream bad(std::string("tevot-forest v1 regressor 1\n") +
                           tree);
    EXPECT_THROW(loadForestRegressor(bad), std::runtime_error) << tree;
  }
}

TEST(SerializeTest, FileRoundTrip) {
  Dataset data;
  util::Rng rng(46);
  for (int i = 0; i < 150; ++i) {
    const float row[1] = {static_cast<float>(rng.nextDouble(0.0, 5.0))};
    data.append({row, 1}, 2.0f * row[0]);
  }
  RandomForestRegressor original;
  original.fit(data, ForestParams{}, rng);
  const std::string path = ::testing::TempDir() + "/tevot_forest.txt";
  util::writeFileAtomic(path, "save", [&](util::TextWriter& out) {
    saveForest(out, original);
  });
  std::ifstream is(path, std::ios::binary);
  const RandomForestRegressor loaded = loadForestRegressor(is);
  for (std::size_t r = 0; r < data.size(); ++r) {
    EXPECT_EQ(loaded.predict(data.x.row(r)),
              original.predict(data.x.row(r)));
  }
  std::remove(path.c_str());
  EXPECT_THROW(util::readFile(path, "load"), util::StatusError);
}

}  // namespace
}  // namespace tevot::ml
