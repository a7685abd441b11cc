// Shared fixtures for the verify tests: hand-built trees with known
// geometry, and TevotModel round-trips through the on-disk format so
// the model-level rules run over exactly what serving would load.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/flat_forest.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "tevot/model.hpp"

namespace tevot::verify {

// Encoder layout with history (130 features):
// [a 0..31][b 32..63][tog_a 64..95][tog_b 96..127][V 128][T 129].
inline constexpr std::int32_t kFeatA0 = 0;
inline constexpr std::int32_t kFeatB0 = 32;
inline constexpr std::int32_t kFeatV = 128;
inline constexpr std::int32_t kFeatT = 129;

/// Single-split tree: x[feature] <= threshold -> left_value, else
/// right_value.
inline ml::DecisionTree stepTree(std::int32_t feature, float threshold,
                                 float left_value, float right_value) {
  std::vector<ml::DecisionTree::Node> nodes(3);
  nodes[0].feature = feature;
  nodes[0].threshold = threshold;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].value = left_value;
  nodes[2].value = right_value;
  ml::DecisionTree tree;
  tree.setNodes(std::move(nodes));
  return tree;
}

/// Constant tree.
inline ml::DecisionTree leafTree(float value) {
  std::vector<ml::DecisionTree::Node> nodes(1);
  nodes[0].value = value;
  ml::DecisionTree tree;
  tree.setNodes(std::move(nodes));
  return tree;
}

inline ml::FlatForest compileTrees(
    const std::vector<ml::DecisionTree>& trees) {
  return ml::FlatForest::compile(trees);
}

/// Writes `trees` in the saved-model format and loads the file back,
/// yielding a trained TevotModel whose forest is exactly `trees` —
/// the same path the registry and the verify-model CLI consume.
inline core::TevotModel modelFromTrees(
    const std::vector<ml::DecisionTree>& trees, const std::string& path,
    bool history = true) {
  ml::RandomForestRegressor forest;
  forest.setTrees(trees);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "tevot-model v2 history " << (history ? 1 : 0) << " split 2\n";
    ml::saveForest(os, forest);
    os << "end\n";
  }
  return core::TevotModel::load(path);
}

/// Certifiably well-behaved model: positive delays, non-increasing in
/// V, non-decreasing in T. Mean over the operating box spans exactly
/// [(250+200+150)/3, (250+300+210)/3] = [200, 253.33..] ps.
inline std::vector<ml::DecisionTree> healthyTrees() {
  return {leafTree(250.0f), stepTree(kFeatV, 0.90f, 300.0f, 200.0f),
          stepTree(kFeatT, 50.0f, 150.0f, 210.0f)};
}

/// Corrupted fixture that PASSES validateForServing: the negative
/// leaf hides behind the conjunction a[0] AND b[0], and every serving
/// canary predicts with b = ~a (so a[0] and b[0] are never both 1).
/// Only whole-domain interval analysis sees the (400 - 900) / 2 =
/// -250 ps region.
inline std::vector<ml::DecisionTree> negativeTailTrees() {
  std::vector<ml::DecisionTree::Node> nodes(5);
  nodes[0].feature = kFeatA0;
  nodes[0].threshold = 0.5f;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].value = 200.0f;
  nodes[2].feature = kFeatB0;
  nodes[2].threshold = 0.5f;
  nodes[2].left = 3;
  nodes[2].right = 4;
  nodes[3].value = 200.0f;
  nodes[4].value = -900.0f;
  ml::DecisionTree hidden;
  hidden.setNodes(std::move(nodes));
  std::vector<ml::DecisionTree> trees;
  trees.push_back(leafTree(400.0f));
  trees.push_back(std::move(hidden));
  return trees;
}

/// Predicted delay strictly increases in V — a certifiable MV003
/// violation (and physically backwards).
inline std::vector<ml::DecisionTree> vIncreasingTrees() {
  return {stepTree(kFeatV, 0.90f, 100.0f, 400.0f)};
}

}  // namespace tevot::verify
