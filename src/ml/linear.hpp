// Linear classifiers: logistic regression (the paper's "LR") and a
// linear soft-margin SVM trained with the Pegasos stochastic
// subgradient method. Both standardize features internally and learn
// a weight per feature — per the paper, this is what lets them weight
// bit positions by their significance in sensitizing paths.
#pragma once

#include "ml/dataset.hpp"

namespace tevot::ml {

struct LinearParams {
  int epochs = 30;
  double learning_rate = 0.1;  ///< initial LR (logistic regression)
  double l2 = 1e-4;            ///< L2 regularization / Pegasos lambda
  std::uint64_t seed = 1234;
};

class LogisticRegression {
 public:
  void fit(const Dataset& data, const LinearParams& params = {});

  float predict(std::span<const float> features) const;
  /// P(class == 1).
  double predictProbability(std::span<const float> features) const;
  std::vector<float> predictBatch(const Matrix& x) const;

  bool fitted() const { return !weights_.empty(); }
  std::span<const float> weights() const { return weights_; }

 private:
  double margin(std::span<const float> standardized) const;

  StandardScaler scaler_;
  std::vector<float> weights_;
  float bias_ = 0.0f;
};

class LinearSvm {
 public:
  void fit(const Dataset& data, const LinearParams& params = {});

  float predict(std::span<const float> features) const;
  /// Signed distance-ish decision value (positive => class 1).
  double decision(std::span<const float> features) const;
  std::vector<float> predictBatch(const Matrix& x) const;

  bool fitted() const { return !weights_.empty(); }

 private:
  StandardScaler scaler_;
  std::vector<float> weights_;
  float bias_ = 0.0f;
};

}  // namespace tevot::ml
