// Brute-force k-nearest-neighbours classifier (paper Table II's k-NN
// baseline). Features are standardized internally so the real-valued
// operating-condition columns do not drown the bit columns (or vice
// versa). Deliberately simple: the experiment's point is that k-NN
// inference cost scales with the training set, unlike the forest.
#pragma once

#include "ml/dataset.hpp"

namespace tevot::ml {

class KnnClassifier {
 public:
  explicit KnnClassifier(int k = 5) : k_(k) {}

  void fit(const Dataset& data);

  /// Majority label among the k nearest (Euclidean) neighbours.
  float predict(std::span<const float> features) const;
  std::vector<float> predictBatch(const Matrix& x) const;

  bool fitted() const { return train_.rows() > 0; }

 private:
  int k_;
  StandardScaler scaler_;
  Matrix train_;  ///< standardized training features
  std::vector<float> labels_;
};

}  // namespace tevot::ml
