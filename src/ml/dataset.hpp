// Dense row-major feature matrix and labeled dataset.
//
// The ML substrate works in float32: TEVoT features are mostly input
// bits ({0,1}) plus two small real-valued operating-condition columns,
// and labels are delays in picoseconds or binary classes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace tevot::ml {

/// Row-major float matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<float> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const float> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  /// Appends a row; the first appended row fixes the column count.
  void appendRow(std::span<const float> values);

  const std::vector<float>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Features + one label per row. `y` is a class id (0/1) for
/// classification or a real target for regression.
struct Dataset {
  Matrix x;
  std::vector<float> y;

  std::size_t size() const { return y.size(); }
  std::size_t features() const { return x.cols(); }

  /// Appends one labeled row. Throws util::StatusError
  /// (kInvalidArgument) on a NaN/inf feature or label: the tree
  /// fitter's split scan and the FlatForest batch kernel both assume
  /// finite values, so the poison is rejected where it enters.
  void append(std::span<const float> features, float label);

  /// Row subset by index.
  Dataset subset(std::span<const std::size_t> indices) const;
};

struct SplitResult {
  Dataset train;
  Dataset test;
};

/// Shuffled split; `train_fraction` of rows go to train.
SplitResult trainTestSplit(const Dataset& dataset, double train_fraction,
                           util::Rng& rng);

/// Feature standardization (zero mean, unit variance). Constant
/// columns are passed through unscaled. Distance- and margin-based
/// learners (k-NN, SVM, logistic regression) need this because the
/// operating-condition columns are on a different scale than the
/// input-bit columns.
class StandardScaler {
 public:
  void fit(const Matrix& x);
  Matrix transform(const Matrix& x) const;
  void transformRow(std::span<const float> in, std::span<float> out) const;
  bool fitted() const { return !mean_.empty(); }

 private:
  std::vector<float> mean_;
  std::vector<float> inv_std_;
};

}  // namespace tevot::ml
