#include "ml/knn.hpp"

#include <algorithm>
#include <stdexcept>

namespace tevot::ml {

void KnnClassifier::fit(const Dataset& data) {
  if (data.size() == 0) {
    throw std::invalid_argument("KnnClassifier::fit: empty dataset");
  }
  if (k_ <= 0) throw std::invalid_argument("KnnClassifier: k must be > 0");
  scaler_.fit(data.x);
  train_ = scaler_.transform(data.x);
  labels_ = data.y;
}

float KnnClassifier::predict(std::span<const float> features) const {
  if (!fitted()) throw std::logic_error("KnnClassifier: not fitted");
  std::vector<float> query(features.size());
  scaler_.transformRow(features, query);

  const auto k = std::min<std::size_t>(static_cast<std::size_t>(k_),
                                       train_.rows());
  // Max-heap of the k best (distance, label) pairs seen so far.
  std::vector<std::pair<float, float>> heap;
  heap.reserve(k + 1);
  for (std::size_t r = 0; r < train_.rows(); ++r) {
    const auto row = train_.row(r);
    float dist = 0.0f;
    for (std::size_t c = 0; c < row.size(); ++c) {
      const float diff = row[c] - query[c];
      dist += diff * diff;
      if (heap.size() == k && dist > heap.front().first) break;
    }
    if (heap.size() < k) {
      heap.emplace_back(dist, labels_[r]);
      std::push_heap(heap.begin(), heap.end());
    } else if (dist < heap.front().first) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = {dist, labels_[r]};
      std::push_heap(heap.begin(), heap.end());
    }
  }
  double votes = 0.0;
  for (const auto& [dist, label] : heap) votes += label;
  return votes >= 0.5 * static_cast<double>(heap.size()) ? 1.0f : 0.0f;
}

std::vector<float> KnnClassifier::predictBatch(const Matrix& x) const {
  std::vector<float> out;
  out.reserve(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out.push_back(predict(x.row(r)));
  return out;
}

}  // namespace tevot::ml
