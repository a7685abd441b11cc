#include "ml/serialize.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/stream.hpp"

namespace tevot::ml {
namespace {

void writeTreeBlock(std::ostream& os, const DecisionTree& tree) {
  const auto nodes = tree.nodes();
  os << "tree " << nodes.size() << "\n";
  for (const DecisionTree::Node& node : nodes) {
    os << node.feature << " " << node.threshold << " " << node.left
       << " " << node.right << " " << node.value << "\n";
  }
}

DecisionTree readTreeBlock(std::istream& is, const char* who) {
  std::string keyword;
  std::size_t n_nodes = 0;
  if (!(is >> keyword >> n_nodes) || keyword != "tree") {
    throw std::runtime_error(std::string(who) + ": expected tree header");
  }
  // A node line is at least 10 bytes ("0 0 0 0 0\n").
  std::vector<DecisionTree::Node> nodes;
  nodes.reserve(std::min<std::uint64_t>(n_nodes, util::bytesLeft(is) / 10));
  for (std::size_t n = 0; n < n_nodes; ++n) {
    DecisionTree::Node node;
    if (!(is >> node.feature >> node.threshold >> node.left >>
          node.right >> node.value)) {
      throw std::runtime_error(std::string(who) + ": truncated node list");
    }
    nodes.push_back(node);
  }
  const util::Status shape = validateTreeShape(nodes);
  if (!shape.ok()) {
    throw std::runtime_error(std::string(who) + ": " + shape.message);
  }
  DecisionTree tree;
  tree.setNodes(std::move(nodes));
  return tree;
}

void writeTrees(std::ostream& os, std::span<const DecisionTree> trees,
                const char* task) {
  os << "tevot-forest v1 " << task << " " << trees.size() << "\n";
  os.precision(9);  // float round-trip
  for (const DecisionTree& tree : trees) writeTreeBlock(os, tree);
}

std::vector<DecisionTree> readTrees(std::istream& is,
                                    const std::string& expected_task) {
  std::string magic, version, task;
  std::size_t n_trees = 0;
  if (!(is >> magic >> version >> task >> n_trees) ||
      magic != "tevot-forest" || version != "v1") {
    throw std::runtime_error("loadForest: bad header");
  }
  if (task != expected_task) {
    throw std::runtime_error("loadForest: task mismatch (file holds a " +
                             task + ")");
  }
  // A tree block is at least 17 bytes ("tree 1\n" plus one node).
  std::vector<DecisionTree> trees;
  trees.reserve(std::min<std::uint64_t>(n_trees, util::bytesLeft(is) / 17));
  for (std::size_t t = 0; t < n_trees; ++t) {
    trees.push_back(readTreeBlock(is, "loadForest"));
  }
  return trees;
}

void writeFloats(std::ostream& os, const char* key,
                 std::span<const float> values) {
  os << key;
  for (const float value : values) os << " " << value;
  os << "\n";
}

std::vector<float> readFloats(std::istream& is, const char* key,
                              std::size_t count, const char* who) {
  std::string keyword;
  if (!(is >> keyword) || keyword != key) {
    throw std::runtime_error(std::string(who) + ": expected '" + key +
                             "' line");
  }
  std::vector<float> values(count);
  for (float& value : values) {
    if (!(is >> value)) {
      throw std::runtime_error(std::string(who) + ": truncated '" + key +
                               "' line");
    }
  }
  return values;
}

void writeScaler(std::ostream& os, const StandardScaler& scaler) {
  writeFloats(os, "mean", scaler.mean());
  writeFloats(os, "invstd", scaler.invStd());
}

StandardScaler readScaler(std::istream& is, std::size_t cols,
                          const char* who) {
  // Two statements: as setState arguments the reads would run in an
  // unspecified order and could consume the lines swapped.
  std::vector<float> mean = readFloats(is, "mean", cols, who);
  std::vector<float> inv_std = readFloats(is, "invstd", cols, who);
  StandardScaler scaler;
  scaler.setState(std::move(mean), std::move(inv_std));
  return scaler;
}

}  // namespace

void saveForest(std::ostream& os, const RandomForestClassifier& forest) {
  writeTrees(os, forest.trees(), "classifier");
}

void saveForest(std::ostream& os, const RandomForestRegressor& forest) {
  writeTrees(os, forest.trees(), "regressor");
}

RandomForestClassifier loadForestClassifier(std::istream& is) {
  RandomForestClassifier forest;
  forest.setTrees(readTrees(is, "classifier"));
  return forest;
}

RandomForestRegressor loadForestRegressor(std::istream& is) {
  RandomForestRegressor forest;
  forest.setTrees(readTrees(is, "regressor"));
  return forest;
}

void saveTree(std::ostream& os, const DecisionTree& tree) {
  os << "tevot-tree v1\n";
  os.precision(9);  // float round-trip
  writeTreeBlock(os, tree);
}

DecisionTree loadTree(std::istream& is) {
  std::string magic, version;
  if (!(is >> magic >> version) || magic != "tevot-tree" ||
      version != "v1") {
    throw std::runtime_error("loadTree: bad header");
  }
  return readTreeBlock(is, "loadTree");
}

void saveKnn(std::ostream& os, const KnnClassifier& knn) {
  const Matrix& train = knn.trainMatrix();
  os << "tevot-knn v1 " << knn.k() << " " << train.rows() << " "
     << train.cols() << "\n";
  os.precision(9);  // float round-trip
  writeScaler(os, knn.scaler());
  const auto labels = knn.labels();
  for (std::size_t r = 0; r < train.rows(); ++r) {
    for (const float value : train.row(r)) os << value << " ";
    os << labels[r] << "\n";
  }
}

KnnClassifier loadKnn(std::istream& is) {
  std::string magic, version;
  int k = 0;
  std::size_t rows = 0, cols = 0;
  if (!(is >> magic >> version >> k >> rows >> cols) ||
      magic != "tevot-knn" || version != "v1") {
    throw std::runtime_error("loadKnn: bad header");
  }
  if (k <= 0 || rows == 0 || cols == 0) {
    throw std::runtime_error("loadKnn: degenerate dimensions");
  }
  StandardScaler scaler = readScaler(is, cols, "loadKnn");
  Matrix train(rows, cols);
  std::vector<float> labels(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!(is >> train.at(r, c))) {
        throw std::runtime_error("loadKnn: truncated training rows");
      }
    }
    if (!(is >> labels[r])) {
      throw std::runtime_error("loadKnn: truncated training rows");
    }
  }
  KnnClassifier knn;
  knn.setState(k, std::move(scaler), std::move(train), std::move(labels));
  return knn;
}

namespace {

void writeLinear(std::ostream& os, const char* kind,
                 std::span<const float> weights, float bias,
                 const StandardScaler& scaler) {
  os << "tevot-linear v1 " << kind << " " << weights.size() << "\n";
  os.precision(9);  // float round-trip
  writeFloats(os, "weights", weights);
  os << "bias " << bias << "\n";
  writeScaler(os, scaler);
}

struct LinearState {
  std::vector<float> weights;
  float bias = 0.0f;
  StandardScaler scaler;
};

LinearState readLinear(std::istream& is, const std::string& expected_kind) {
  std::string magic, version, kind;
  std::size_t cols = 0;
  if (!(is >> magic >> version >> kind >> cols) ||
      magic != "tevot-linear" || version != "v1") {
    throw std::runtime_error("loadLinear: bad header");
  }
  if (kind != expected_kind) {
    throw std::runtime_error("loadLinear: kind mismatch (file holds a " +
                             kind + ")");
  }
  if (cols == 0) {
    throw std::runtime_error("loadLinear: degenerate dimensions");
  }
  LinearState state;
  state.weights = readFloats(is, "weights", cols, "loadLinear");
  std::string keyword;
  if (!(is >> keyword >> state.bias) || keyword != "bias") {
    throw std::runtime_error("loadLinear: expected 'bias' line");
  }
  state.scaler = readScaler(is, cols, "loadLinear");
  return state;
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
