#include "ml/serialize.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/status.hpp"
#include "util/stream.hpp"

namespace tevot::ml {
namespace {

/// No bound on split feature indices: the ml loaders do not know the
/// width of the rows a model will see.
constexpr std::size_t kAnyFeatureCount =
    std::numeric_limits<std::size_t>::max();

/// Parses all of `is` with `parse`; the model must end the input.
/// Errors carry `who` ahead of the reader's message.
template <typename Parse>
auto parseStream(std::istream& is, const char* who, Parse parse) {
  const std::string text = util::readAll(is);
  util::TextReader in(text);
  try {
    auto model = parse(in);
    in.expectEnd("the model");
    return model;
  } catch (const util::StatusError& error) {
    throw util::StatusError({error.status().code,
                             std::string(who) + ": " + error.status().message});
  }
}

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

void writeTrees(util::TextWriter& out, std::span<const DecisionTree> trees,
                const char* task) {
  out.text("tevot-forest v1 ").text(task).text(" ").number(trees.size());
  out.text("\n");
  for (const DecisionTree& tree : trees) writeTreeBlock(out, tree);
}

std::vector<DecisionTree> readTrees(util::TextReader& in,
                                    std::string_view expected_task,
                                    std::size_t n_features) {
  in.expect("tevot-forest");
  in.expect("v1");
  const std::string_view task = in.word();
  if (task != expected_task) {
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
  return trees;
}

void writeFloats(util::TextWriter& out, const char* key,
                 std::span<const float> values) {
  out.text(key);
  for (const float value : values) out.text(" ").number(value);
  out.text("\n");
}

std::vector<float> readFloats(util::TextReader& in, const char* key,
                              std::size_t count) {
  in.expect(key);
  std::vector<float> values(count);
  for (float& value : values) value = in.finiteFloat(key);
  return values;
}

void writeScaler(util::TextWriter& out, const StandardScaler& scaler) {
  writeFloats(out, "mean", scaler.mean());
  writeFloats(out, "invstd", scaler.invStd());
}

StandardScaler readScaler(util::TextReader& in, std::size_t cols) {
  // Two statements: as setState arguments the reads would run in an
  // unspecified order and could consume the lines swapped.
  std::vector<float> mean = readFloats(in, "mean", cols);
  std::vector<float> inv_std = readFloats(in, "invstd", cols);
  StandardScaler scaler;
  scaler.setState(std::move(mean), std::move(inv_std));
  return scaler;
}

}  // namespace

void saveForest(util::TextWriter& out, const RandomForestRegressor& forest) {
  writeTrees(out, forest.trees(), "regressor");
}

RandomForestRegressor loadForestRegressor(util::TextReader& in,
                                          std::size_t n_features) {
  RandomForestRegressor forest;
  forest.setTrees(readTrees(in, "regressor", n_features));
  return forest;
}

void saveForest(std::ostream& os, const RandomForestClassifier& forest) {
  util::TextWriter out(os);
  writeTrees(out, forest.trees(), "classifier");
}

void saveForest(std::ostream& os, const RandomForestRegressor& forest) {
  util::TextWriter out(os);
  saveForest(out, forest);
}

RandomForestClassifier loadForestClassifier(std::istream& is) {
  return parseStream(is, "loadForest", [](util::TextReader& in) {
    RandomForestClassifier forest;
    forest.setTrees(readTrees(in, "classifier", kAnyFeatureCount));
    return forest;
  });
}

RandomForestRegressor loadForestRegressor(std::istream& is) {
  return parseStream(is, "loadForest", [](util::TextReader& in) {
    return loadForestRegressor(in, kAnyFeatureCount);
  });
}

void saveTree(std::ostream& os, const DecisionTree& tree) {
  util::TextWriter out(os);
  out.text("tevot-tree v1\n");
  writeTreeBlock(out, tree);
}

DecisionTree loadTree(std::istream& is) {
  return parseStream(is, "loadTree", [](util::TextReader& in) {
    in.expect("tevot-tree");
    in.expect("v1");
    std::vector<DecisionTree::Node> nodes = readTreeNodes(in);
    const util::Status shape = validateTreeShape(nodes);
    if (!shape.ok()) in.fail(shape.message);
    DecisionTree tree;
    tree.setNodes(std::move(nodes));
    return tree;
  });
}

void saveKnn(std::ostream& os, const KnnClassifier& knn) {
  util::TextWriter out(os);
  const Matrix& train = knn.trainMatrix();
  out.text("tevot-knn v1 ").number(knn.k()).text(" ").number(train.rows());
  out.text(" ").number(train.cols()).text("\n");
  writeScaler(out, knn.scaler());
  const auto labels = knn.labels();
  for (std::size_t r = 0; r < train.rows(); ++r) {
    for (const float value : train.row(r)) out.number(value).text(" ");
    out.number(labels[r]).text("\n");
  }
}

KnnClassifier loadKnn(std::istream& is) {
  return parseStream(is, "loadKnn", [](util::TextReader& in) {
    in.expect("tevot-knn");
    in.expect("v1");
    const int k = in.integer<int>("k");
    const auto rows = in.integer<std::size_t>("row count");
    const auto cols = in.integer<std::size_t>("column count");
    if (k <= 0 || rows == 0 || cols == 0) in.fail("degenerate dimensions");
    // Every value takes at least two bytes ("0 ").
    const std::size_t values_left = in.bytesLeft() / 2;
    if (cols >= values_left || rows > values_left / (cols + 1)) {
      in.fail("truncated: " + std::to_string(rows) + " training rows");
    }
    StandardScaler scaler = readScaler(in, cols);
    Matrix train(rows, cols);
    std::vector<float> labels(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        train.at(r, c) = in.finiteFloat("training value");
      }
      labels[r] = in.finiteFloat("training label");
    }
    KnnClassifier knn;
    knn.setState(k, std::move(scaler), std::move(train), std::move(labels));
    return knn;
  });
}

namespace {

void writeLinear(std::ostream& os, const char* kind,
                 std::span<const float> weights, float bias,
                 const StandardScaler& scaler) {
  util::TextWriter out(os);
  out.text("tevot-linear v1 ").text(kind).text(" ").number(weights.size());
  out.text("\n");
  writeFloats(out, "weights", weights);
  out.text("bias ").number(bias).text("\n");
  writeScaler(out, scaler);
}

struct LinearState {
  std::vector<float> weights;
  float bias = 0.0f;
  StandardScaler scaler;
};

LinearState readLinear(std::istream& is, std::string_view expected_kind) {
  return parseStream(is, "loadLinear", [&](util::TextReader& in) {
    in.expect("tevot-linear");
    in.expect("v1");
    const std::string_view kind = in.word();
    if (kind != expected_kind) {
      in.fail("kind mismatch (file holds a '" + std::string(kind) + "')");
    }
    const auto cols = in.integer<std::size_t>("column count");
    if (cols == 0) in.fail("degenerate dimensions");
    // Each of the three vectors takes at least two bytes per value.
    if (cols > in.bytesLeft() / 6) {
      in.fail("truncated: " + std::to_string(cols) + " columns");
    }
    LinearState state;
    state.weights = readFloats(in, "weights", cols);
    in.expect("bias");
    state.bias = in.finiteFloat("bias");
    state.scaler = readScaler(in, cols);
    return state;
  });
}

}  // namespace

void saveLinear(std::ostream& os, const LogisticRegression& model) {
  writeLinear(os, "logistic", model.weights(), model.bias(),
              model.scaler());
}

void saveLinear(std::ostream& os, const LinearSvm& model) {
  writeLinear(os, "svm", model.weights(), model.bias(), model.scaler());
}

LogisticRegression loadLogistic(std::istream& is) {
  LinearState state = readLinear(is, "logistic");
  LogisticRegression model;
  model.setState(std::move(state.weights), state.bias,
                 std::move(state.scaler));
  return model;
}

LinearSvm loadSvm(std::istream& is) {
  LinearState state = readLinear(is, "svm");
  LinearSvm model;
  model.setState(std::move(state.weights), state.bias,
                 std::move(state.scaler));
  return model;
}

void saveForestFile(const std::string& path,
                    const RandomForestClassifier& forest) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("saveForestFile: cannot open " + path + ": " +
                             std::strerror(errno));
  saveForest(os, forest);
}

void saveForestFile(const std::string& path,
                    const RandomForestRegressor& forest) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("saveForestFile: cannot open " + path + ": " +
                             std::strerror(errno));
  saveForest(os, forest);
}

RandomForestClassifier loadForestClassifierFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("loadForestClassifierFile: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  return loadForestClassifier(is);
}

RandomForestRegressor loadForestRegressorFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("loadForestRegressorFile: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  return loadForestRegressor(is);
}

}  // namespace tevot::ml
