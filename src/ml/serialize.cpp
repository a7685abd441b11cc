#include "ml/serialize.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/status.hpp"

namespace tevot::ml {
namespace {

/// No bound on split feature indices: a bare forest does not know the
/// width of the rows it will see.
constexpr std::size_t kAnyFeatureCount =
    std::numeric_limits<std::size_t>::max();

void writeTreeBlock(util::TextWriter& out, const DecisionTree& tree) {
  const auto nodes = tree.nodes();
  out.text("tree ").number(nodes.size()).text("\n");
  for (const DecisionTree::Node& node : nodes) {
    out.number(node.feature).text(" ").number(node.threshold).text(" ");
    out.number(node.left).text(" ").number(node.right).text(" ");
    out.number(node.value).text("\n");
  }
}

/// One tree block's nodes; the caller checks their shape.
std::vector<DecisionTree::Node> readTreeNodes(util::TextReader& in) {
  in.expect("tree");
  const auto n_nodes = in.integer<std::size_t>("node count");
  // A node line is at least 10 bytes ("0 0 0 0 0\n").
  std::vector<DecisionTree::Node> nodes;
  nodes.reserve(std::min(n_nodes, in.bytesLeft() / 10));
  for (std::size_t n = 0; n < n_nodes; ++n) {
    DecisionTree::Node node;
    node.feature = in.integer<std::int32_t>("node feature");
    node.threshold = in.finiteFloat("node threshold");
    node.left = in.integer<std::int32_t>("node left child");
    node.right = in.integer<std::int32_t>("node right child");
    node.value = in.finiteFloat("node value");
    nodes.push_back(node);
  }
  return nodes;
}

}  // namespace

void saveForest(util::TextWriter& out, const RandomForestRegressor& forest) {
  const auto trees = forest.trees();
  out.text("tevot-forest v1 regressor ").number(trees.size()).text("\n");
  for (const DecisionTree& tree : trees) writeTreeBlock(out, tree);
}

RandomForestRegressor loadForestRegressor(util::TextReader& in,
                                          std::size_t n_features) {
  in.expect("tevot-forest");
  in.expect("v1");
  const std::string_view task = in.word();
  if (task != "regressor") {
    in.fail("task mismatch (file holds a '" + std::string(task) + "')");
  }
  const auto n_trees = in.integer<std::size_t>("tree count");
  // A tree block is at least 17 bytes ("tree 1\n" plus one node).
  std::vector<DecisionTree> trees;
  trees.reserve(std::min(n_trees, in.bytesLeft() / 17));
  for (std::size_t t = 0; t < n_trees; ++t) {
    trees.emplace_back().setNodes(readTreeNodes(in));
  }
  // The one structure check of a load. Trees that are sound on their
  // own but split on a feature the caller's rows do not have are an
  // argument mismatch; any other failure is a malformed file.
  util::Status structure = validateForestStructure(trees, n_features);
  if (!structure.ok()) {
    const bool sound = validateForestStructure(trees, kAnyFeatureCount).ok();
    structure.code = sound ? util::StatusCode::kInvalidArgument
                           : util::StatusCode::kParseError;
    throw util::StatusError(std::move(structure));
  }
  RandomForestRegressor forest;
  forest.setTrees(std::move(trees));
  return forest;
}

void saveForest(std::ostream& os, const RandomForestRegressor& forest) {
  util::TextWriter out(os);
  saveForest(out, forest);
}

RandomForestRegressor loadForestRegressor(std::istream& is) {
  const std::string text = util::readAll(is);
  util::TextReader in(text);
  try {
    RandomForestRegressor forest = loadForestRegressor(in, kAnyFeatureCount);
    in.expectEnd("the model");
    return forest;
  } catch (const util::StatusError& error) {
    throw util::StatusError(
        {error.status().code, "loadForest: " + error.status().message});
  }
}

}  // namespace tevot::ml
