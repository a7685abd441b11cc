#include "ml/random_forest.hpp"

#include <cmath>
#include <stdexcept>

namespace tevot::ml {
namespace {

std::vector<DecisionTree> fitForest(const Dataset& data, TreeTask task,
                                    const ForestParams& params,
                                    util::Rng& rng, util::ThreadPool* pool) {
  if (params.n_trees <= 0) {
    throw std::invalid_argument("fitForest: n_trees must be positive");
  }
  const auto n_trees = static_cast<std::size_t>(params.n_trees);
  // Split the caller's stream into one seed per tree up front. Each
  // tree then draws only from its own generator, so the fitted forest
  // is bit-identical whether the trees are grown serially or on a
  // pool of any size.
  std::vector<std::uint64_t> seeds(n_trees);
  for (std::uint64_t& seed : seeds) seed = rng.next();

  // Packed once; every tree reads it, never writes it.
  const BinaryColumns binary = BinaryColumns::pack(data);
  std::vector<DecisionTree> trees(n_trees);
  const auto fit_one = [&](std::size_t t) {
    util::Rng tree_rng(seeds[t]);
    if (params.bootstrap) {
      std::vector<std::size_t> sample(data.size());
      for (std::size_t i = 0; i < sample.size(); ++i) {
        sample[i] = tree_rng.nextBelow(data.size());
      }
      trees[t].fit(data, binary, task, params.tree, tree_rng, sample);
    } else {
      trees[t].fit(data, binary, task, params.tree, tree_rng);
    }
  };
  if (pool != nullptr) {
    pool->parallelFor(n_trees, fit_one);
  } else {
    for (std::size_t t = 0; t < n_trees; ++t) fit_one(t);
  }
  return trees;
}

}  // namespace

void RandomForestClassifier::fit(const Dataset& data,
                                 const ForestParams& params, util::Rng& rng,
                                 util::ThreadPool* pool) {
  trees_ = fitForest(data, TreeTask::kClassification, params, rng, pool);
}

double RandomForestClassifier::predictProbability(
    std::span<const float> features) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForestClassifier: not fitted");
  }
  double votes = 0.0;
  for (const DecisionTree& tree : trees_) {
    votes += tree.predict(features);
  }
  return votes / static_cast<double>(trees_.size());
}

float RandomForestClassifier::predict(std::span<const float> features) const {
  return predictProbability(features) >= 0.5 ? 1.0f : 0.0f;
}

std::vector<float> RandomForestClassifier::predictBatch(
    const Matrix& x) const {
  std::vector<float> out;
  out.reserve(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out.push_back(predict(x.row(r)));
  return out;
}

void RandomForestRegressor::fit(const Dataset& data,
                                const ForestParams& params, util::Rng& rng,
                                util::ThreadPool* pool) {
  trees_ = fitForest(data, TreeTask::kRegression, params, rng, pool);
}

float RandomForestRegressor::predict(std::span<const float> features) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForestRegressor: not fitted");
  }
  double total = 0.0;
  for (const DecisionTree& tree : trees_) {
    total += tree.predict(features);
  }
  return static_cast<float>(total / static_cast<double>(trees_.size()));
}

std::vector<float> RandomForestRegressor::predictBatch(const Matrix& x) const {
  std::vector<float> out;
  out.reserve(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out.push_back(predict(x.row(r)));
  return out;
}

std::vector<double> forestFeatureImportance(
    std::span<const DecisionTree> trees, std::size_t n_features) {
  std::vector<double> total(n_features, 0.0);
  for (const DecisionTree& tree : trees) {
    const std::vector<double> per_tree =
        tree.featureImportance(n_features);
    for (std::size_t f = 0; f < n_features; ++f) total[f] += per_tree[f];
  }
  double sum = 0.0;
  for (const double value : total) sum += value;
  if (sum > 0.0) {
    for (double& value : total) value /= sum;
  }
  return total;
}

util::Status validateTreeShape(std::span<const DecisionTree::Node> nodes) {
  if (nodes.empty()) return util::Status::invalidArgument("tree is empty");
  // Depth-first from the root: a child seen twice has two parents.
  std::vector<bool> seen(nodes.size(), false);
  std::vector<std::size_t> pending = {0};
  seen[0] = true;
  std::size_t reached = 1;
  while (!pending.empty()) {
    const std::size_t n = pending.back();
    pending.pop_back();
    if (nodes[n].feature < 0) continue;  // leaf
    for (const std::int32_t child : {nodes[n].left, nodes[n].right}) {
      const auto c = static_cast<std::size_t>(child);
      const bool in_range = child >= 0 && c < nodes.size();
      if (!in_range || seen[c]) {
        return util::Status::invalidArgument(
            "node " + std::to_string(n) + ": child " +
            std::to_string(child) +
            (in_range ? " has two parents (cycle or shared child)"
                      : " out of range"));
      }
      seen[c] = true;
      ++reached;
      pending.push_back(c);
    }
  }
  if (reached != nodes.size()) {
    return util::Status::invalidArgument(
        std::to_string(nodes.size() - reached) +
        " node(s) unreachable from the root");
  }
  return util::Status::okStatus();
}

util::Status validateForestStructure(std::span<const DecisionTree> trees,
                                     std::size_t n_features) {
  if (trees.empty()) {
    return util::Status::invalidArgument("forest has no trees");
  }
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const auto nodes = trees[t].nodes();
    const auto where = [t](const std::string& what) {
      return util::Status::invalidArgument("tree " + std::to_string(t) +
                                           " " + what);
    };
    const util::Status shape = validateTreeShape(nodes);
    if (!shape.ok()) return where(shape.message);
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      const DecisionTree::Node& node = nodes[n];
      if (!std::isfinite(node.threshold) || !std::isfinite(node.value)) {
        return where("node " + std::to_string(n) +
                     ": non-finite threshold/value");
      }
      if (node.feature >= 0 &&
          static_cast<std::size_t>(node.feature) >= n_features) {
        return where("node " + std::to_string(n) + ": feature " +
                     std::to_string(node.feature) + " out of range for " +
                     std::to_string(n_features) + " features");
      }
    }
  }
  return util::Status::okStatus();
}

}  // namespace tevot::ml
