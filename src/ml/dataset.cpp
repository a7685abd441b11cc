#include "ml/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/status.hpp"

namespace tevot::ml {

void Matrix::appendRow(std::span<const float> values) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = values.size();
  }
  if (values.size() != cols_) {
    throw std::invalid_argument("Matrix::appendRow: column count mismatch");
  }
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

void Dataset::append(std::span<const float> features, float label) {
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (!std::isfinite(features[i])) {
      throw util::StatusError(util::Status::invalidArgument(
          "Dataset::append: feature " + std::to_string(i) +
          " is not finite"));
    }
  }
  if (!std::isfinite(label)) {
    throw util::StatusError(
        util::Status::invalidArgument("Dataset::append: label is not finite"));
  }
  x.appendRow(features);
  y.push_back(label);
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out;
  out.x = Matrix(indices.size(), x.cols());
  out.y.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto src = x.row(indices[i]);
    std::copy(src.begin(), src.end(), out.x.row(i).begin());
    out.y.push_back(y[indices[i]]);
  }
  return out;
}

SplitResult trainTestSplit(const Dataset& dataset, double train_fraction,
                           util::Rng& rng) {
  if (train_fraction < 0.0 || train_fraction > 1.0) {
    throw std::invalid_argument("trainTestSplit: bad fraction");
  }
  std::vector<std::size_t> order(dataset.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  const auto n_train = static_cast<std::size_t>(
      train_fraction * static_cast<double>(dataset.size()));
  SplitResult result;
  result.train = dataset.subset({order.data(), n_train});
  result.test =
      dataset.subset({order.data() + n_train, dataset.size() - n_train});
  return result;
}

void StandardScaler::fit(const Matrix& x) {
  const std::size_t cols = x.cols();
  const std::size_t rows = x.rows();
  if (rows == 0) throw std::invalid_argument("StandardScaler: empty matrix");
  mean_.assign(cols, 0.0f);
  inv_std_.assign(cols, 1.0f);
  std::vector<double> sum(cols, 0.0), sumsq(cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < cols; ++c) {
      sum[c] += row[c];
      sumsq[c] += static_cast<double>(row[c]) * row[c];
    }
  }
  for (std::size_t c = 0; c < cols; ++c) {
    const double mean = sum[c] / static_cast<double>(rows);
    const double var = sumsq[c] / static_cast<double>(rows) - mean * mean;
    mean_[c] = static_cast<float>(mean);
    inv_std_[c] = var > 1e-12 ? static_cast<float>(1.0 / std::sqrt(var))
                              : 1.0f;
  }
}

Matrix StandardScaler::transform(const Matrix& x) const {
  if (!fitted()) throw std::logic_error("StandardScaler: not fitted");
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    transformRow(x.row(r), out.row(r));
  }
  return out;
}

void StandardScaler::transformRow(std::span<const float> in,
                                  std::span<float> out) const {
  if (in.size() != mean_.size() || out.size() != mean_.size()) {
    throw std::invalid_argument("StandardScaler: width mismatch");
  }
  for (std::size_t c = 0; c < in.size(); ++c) {
    out[c] = (in[c] - mean_[c]) * inv_std_[c];
  }
}

}  // namespace tevot::ml
