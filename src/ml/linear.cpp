#include "ml/linear.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace tevot::ml {
namespace {

void checkFitInput(const Dataset& data) {
  if (data.size() == 0) {
    throw std::invalid_argument("linear model fit: empty dataset");
  }
  for (const float label : data.y) {
    if (label != 0.0f && label != 1.0f) {
      throw std::invalid_argument("linear model fit: labels must be 0/1");
    }
  }
}

}  // namespace

void LogisticRegression::fit(const Dataset& data,
                             const LinearParams& params) {
  checkFitInput(data);
  scaler_.fit(data.x);
  const Matrix x = scaler_.transform(data.x);
  weights_.assign(x.cols(), 0.0f);
  bias_ = 0.0f;

  util::Rng rng(params.seed);
  std::vector<std::size_t> order(x.rows());
  std::iota(order.begin(), order.end(), 0);

  std::size_t step = 0;
  for (int epoch = 0; epoch < params.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t r : order) {
      ++step;
      const double lr =
          params.learning_rate / (1.0 + params.learning_rate *
                                            params.l2 *
                                            static_cast<double>(step));
      const auto row = x.row(r);
      double z = bias_;
      for (std::size_t c = 0; c < row.size(); ++c) {
        z += static_cast<double>(weights_[c]) * row[c];
      }
      const double p = 1.0 / (1.0 + std::exp(-z));
      const double err = p - data.y[r];
      for (std::size_t c = 0; c < row.size(); ++c) {
        weights_[c] = static_cast<float>(
            weights_[c] -
            lr * (err * row[c] + params.l2 * weights_[c]));
      }
      bias_ = static_cast<float>(bias_ - lr * err);
    }
  }
}

double LogisticRegression::margin(std::span<const float> standardized) const {
  double z = bias_;
  for (std::size_t c = 0; c < standardized.size(); ++c) {
    z += static_cast<double>(weights_[c]) * standardized[c];
  }
  return z;
}

double LogisticRegression::predictProbability(
    std::span<const float> features) const {
  if (!fitted()) throw std::logic_error("LogisticRegression: not fitted");
  std::vector<float> scaled(features.size());
  scaler_.transformRow(features, scaled);
  return 1.0 / (1.0 + std::exp(-margin(scaled)));
}

float LogisticRegression::predict(std::span<const float> features) const {
  return predictProbability(features) >= 0.5 ? 1.0f : 0.0f;
}

std::vector<float> LogisticRegression::predictBatch(const Matrix& x) const {
  std::vector<float> out;
  out.reserve(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out.push_back(predict(x.row(r)));
  return out;
}

void LinearSvm::fit(const Dataset& data, const LinearParams& params) {
  checkFitInput(data);
  scaler_.fit(data.x);
  const Matrix x = scaler_.transform(data.x);
  weights_.assign(x.cols(), 0.0f);
  bias_ = 0.0f;

  util::Rng rng(params.seed);
  const double lambda = params.l2 > 0 ? params.l2 : 1e-4;
  std::size_t step = 0;
  // Pegasos: at each step draw a random sample, take a subgradient
  // step with learning rate 1 / (lambda * t).
  const std::size_t total_steps =
      static_cast<std::size_t>(params.epochs) * x.rows();
  for (std::size_t iter = 0; iter < total_steps; ++iter) {
    ++step;
    const double lr = 1.0 / (lambda * static_cast<double>(step));
    const std::size_t r = rng.nextBelow(x.rows());
    const auto row = x.row(r);
    const double y = data.y[r] > 0.5 ? 1.0 : -1.0;
    double z = bias_;
    for (std::size_t c = 0; c < row.size(); ++c) {
      z += static_cast<double>(weights_[c]) * row[c];
    }
    const double scale = 1.0 - lr * lambda;
    for (auto& w : weights_) w = static_cast<float>(w * scale);
    if (y * z < 1.0) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        weights_[c] = static_cast<float>(weights_[c] + lr * y * row[c]);
      }
      bias_ = static_cast<float>(bias_ + lr * y);
    }
  }
}

double LinearSvm::decision(std::span<const float> features) const {
  if (!fitted()) throw std::logic_error("LinearSvm: not fitted");
  std::vector<float> scaled(features.size());
  scaler_.transformRow(features, scaled);
  double z = bias_;
  for (std::size_t c = 0; c < scaled.size(); ++c) {
    z += static_cast<double>(weights_[c]) * scaled[c];
  }
  return z;
}

float LinearSvm::predict(std::span<const float> features) const {
  return decision(features) >= 0.0 ? 1.0f : 0.0f;
}

std::vector<float> LinearSvm::predictBatch(const Matrix& x) const {
  std::vector<float> out;
  out.reserve(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out.push_back(predict(x.row(r)));
  return out;
}

}  // namespace tevot::ml
