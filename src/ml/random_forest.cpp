#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace tevot::ml {
namespace {

/// One seed per tree, split off the caller's stream before any tree
/// grows. Each tree then draws only from its own generator, so a
/// forest is bit-identical whether its trees grow serially or on a
/// pool of any size.
std::vector<std::uint64_t> treeSeeds(const ForestParams& params,
                                     util::Rng& rng) {
  if (params.n_trees <= 0) {
    throw std::invalid_argument("fitForest: n_trees must be positive");
  }
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(params.n_trees));
  for (std::uint64_t& seed : seeds) seed = rng.next();
  return seeds;
}

/// A tree's bootstrap sample: `n` rows drawn with replacement.
std::vector<std::size_t> bootstrapSample(util::Rng& tree_rng,
                                         std::size_t n) {
  std::vector<std::size_t> sample(n);
  for (std::size_t& row : sample) row = tree_rng.nextBelow(n);
  return sample;
}

void forEachTree(std::size_t n_trees, util::ThreadPool* pool,
                 const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    pool->parallelFor(n_trees, body);
  } else {
    for (std::size_t t = 0; t < n_trees; ++t) body(t);
  }
}

std::vector<DecisionTree> fitForest(const Dataset& data, TreeTask task,
                                    const ForestParams& params,
                                    util::Rng& rng, util::ThreadPool* pool) {
  const std::vector<std::uint64_t> seeds = treeSeeds(params, rng);
  // Packed once; every tree reads it, never writes it.
  const BinaryColumns binary = BinaryColumns::pack(data);
  std::vector<DecisionTree> trees(seeds.size());
  forEachTree(seeds.size(), pool, [&](std::size_t t) {
    util::Rng tree_rng(seeds[t]);
    if (params.bootstrap) {
      const std::vector<std::size_t> sample =
          bootstrapSample(tree_rng, data.size());
      trees[t].fit(data, binary, task, params.tree, tree_rng, sample);
    } else {
      trees[t].fit(data, binary, task, params.tree, tree_rng);
    }
  });
  return trees;
}

/// Per row, the mean prediction of the trees that did not draw it
/// (summed in tree order, as predict() does), or NaN.
std::vector<float> outOfBag(const Dataset& data,
                            std::span<const DecisionTree> trees,
                            std::span<const std::vector<char>> in_bag) {
  std::vector<float> oob(data.size(),
                         std::numeric_limits<float>::quiet_NaN());
  for (std::size_t r = 0; r < data.size(); ++r) {
    double total = 0.0;
    std::size_t voters = 0;
    for (std::size_t t = 0; t < trees.size(); ++t) {
      if (in_bag[t][r] != 0) continue;
      total += trees[t].predict(data.x.row(r));
      ++voters;
    }
    if (voters > 0) {
      oob[r] = static_cast<float>(total / static_cast<double>(voters));
    }
  }
  return oob;
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

int RandomForestRegressor::fitLadder(
    const Dataset& data, const ForestParams& params,
    std::span<const int> ladder,
    const std::function<bool(OutOfBag, OutOfBag)>& finer_pays,
    util::Rng& rng, util::ThreadPool* pool) {
  if (ladder.empty() ||
      std::adjacent_find(ladder.begin(), ladder.end(), std::less_equal<>()) !=
          ladder.end()) {
    throw std::invalid_argument(
        "fitLadder: the ladder must be a non-empty, strictly falling list");
  }
  if (!params.bootstrap) {
    throw std::invalid_argument(
        "fitLadder: out-of-bag rows need bootstrap samples");
  }
  if (params.tree.max_features >= 0) {
    throw std::invalid_argument(
        "fitLadder: stepped growth needs max_features < 0");
  }
  const std::vector<std::uint64_t> seeds = treeSeeds(params, rng);
  const std::size_t n_trees = seeds.size();
  const BinaryColumns binary = BinaryColumns::pack(data);
  std::vector<std::vector<char>> in_bag(n_trees);
  std::vector<TreeGrower> growers;
  growers.reserve(n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) {
    util::Rng tree_rng(seeds[t]);
    const std::vector<std::size_t> sample =
        bootstrapSample(tree_rng, data.size());
    in_bag[t].assign(data.size(), 0);
    for (const std::size_t row : sample) in_bag[t][row] = 1;
    growers.emplace_back(data, binary, TreeTask::kRegression, params.tree,
                         nullptr, sample);
  }

  std::vector<DecisionTree> kept;
  std::vector<float> kept_oob;
  int chosen = ladder.front();
  for (std::size_t step = 0; step < ladder.size(); ++step) {
    std::vector<DecisionTree> grown(n_trees);
    forEachTree(n_trees, pool, [&](std::size_t t) {
      growers[t].growTo(ladder[step]);
      grown[t] = growers[t].tree();
    });
    std::vector<float> oob = outOfBag(data, grown, in_bag);
    if (step > 0 && !finer_pays(kept_oob, oob)) break;
    kept = std::move(grown);
    kept_oob = std::move(oob);
    chosen = ladder[step];
    const auto complete = [](const TreeGrower& g) { return g.complete(); };
    if (std::all_of(growers.begin(), growers.end(), complete)) break;
  }
  trees_ = std::move(kept);
  return chosen;
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
