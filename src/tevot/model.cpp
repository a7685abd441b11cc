#include "tevot/model.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "ml/serialize.hpp"
#include "tevot/operating_grid.hpp"
#include "util/text_io.hpp"

namespace tevot::core {

ml::Dataset buildDelayDataset(std::span<const dta::DtaTrace> traces,
                              const FeatureEncoder& encoder) {
  ml::Dataset data;
  std::vector<float> row(encoder.featureCount());
  for (const dta::DtaTrace& trace : traces) {
    for (const dta::DtaSample& sample : trace.samples) {
      encoder.encodeSample(sample, trace.corner, row);
      data.append(row, static_cast<float>(sample.delay_ps));
    }
  }
  return data;
}

ml::Dataset buildErrorDataset(
    std::span<const dta::DtaTrace> traces, const FeatureEncoder& encoder,
    const std::function<double(const dta::DtaTrace&)>& clock_of_trace) {
  ml::Dataset data;
  std::vector<float> row(encoder.featureCount());
  for (const dta::DtaTrace& trace : traces) {
    const double tclk = clock_of_trace(trace);
    for (const dta::DtaSample& sample : trace.samples) {
      encoder.encodeSample(sample, trace.corner, row);
      data.append(row, sample.timingError(tclk) ? 1.0f : 0.0f);
    }
  }
  return data;
}

constexpr std::size_t kSpeedups = std::size(dta::kClockSpeedups);

OutOfBagScorer::OutOfBagScorer(std::span<const dta::DtaTrace> traces) {
  for (const dta::DtaTrace& trace : traces) {
    Row row{};
    for (std::size_t s = 0; s < kSpeedups; ++s) {
      row.tclk[s] =
          dta::speedupClockPs(trace.baseClockPs(), dta::kClockSpeedups[s]);
    }
    for (const dta::DtaSample& sample : trace.samples) {
      row.delay_ps = sample.delay_ps;
      for (std::size_t s = 0; s < kSpeedups; ++s) {
        row.error[s] = sample.timingError(row.tclk[s]);
      }
      rows_.push_back(row);
    }
  }
}

OutOfBagScorer::Score OutOfBagScorer::score(
    std::span<const float> oob) const {
  if (oob.size() != rows_.size()) {
    throw std::invalid_argument("OutOfBagScorer: one prediction per row");
  }
  Score score;
  std::size_t scored = 0;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (std::isnan(oob[r])) continue;
    const double delay = oob[r];
    score.mae += std::fabs(delay - rows_[r].delay_ps);
    for (std::size_t s = 0; s < kSpeedups; ++s) {
      score.error_rate[s] +=
          (delay > rows_[r].tclk[s]) != rows_[r].error[s] ? 1.0 : 0.0;
    }
    ++scored;
  }
  if (scored > 0) {
    score.mae /= static_cast<double>(scored);
    for (double& rate : score.error_rate) {
      rate /= static_cast<double>(scored);
    }
  }
  return score;
}

bool OutOfBagScorer::finerStepPays(const Score& coarse, const Score& fine) {
  if (fine.mae < coarse.mae * (1.0 - kOobMaeTolerance)) return true;
  for (std::size_t s = 0; s < kSpeedups; ++s) {
    if (coarse.error_rate[s] - fine.error_rate[s] > kOobErrorRateTolerance) {
      return true;
    }
  }
  return false;
}

void TevotModel::train(std::span<const dta::DtaTrace> traces,
                       util::Rng& rng, util::ThreadPool* pool) {
  const ml::Dataset data = buildDelayDataset(traces, encoder_);
  if (data.size() == 0) {
    throw std::invalid_argument("TevotModel::train: no training samples");
  }
  const OutOfBagScorer scorer(traces);
  const int floor = config_.forest.tree.min_samples_split;
  std::vector<int> ladder;
  for (const int size : kSplitLadder) {
    if (size >= floor) ladder.push_back(size);
  }
  if (ladder.empty()) ladder.push_back(floor);
  split_size_ = forest_.fitLadder(
      data, config_.forest, ladder,
      [&scorer](std::span<const float> coarse, std::span<const float> fine) {
        return OutOfBagScorer::finerStepPays(scorer.score(coarse),
                                             scorer.score(fine));
      },
      rng, pool);
  compileFlat();
}

namespace {

/// Non-finite V/T would poison the feature row (the flat batch kernel
/// requires finite features to match the CART walk); reject with the
/// taxonomy code the sweep/serve layers classify on.
void requireFiniteCorner(const liberty::Corner& corner) {
  if (std::isfinite(corner.voltage) && std::isfinite(corner.temperature)) {
    return;
  }
  char msg[96];
  std::snprintf(msg, sizeof(msg),
                "corner is not finite: V=%g, T=%g", corner.voltage,
                corner.temperature);
  throw util::StatusError(util::Status::invalidArgument(msg));
}

}  // namespace

double TevotModel::predictDelay(std::uint32_t a, std::uint32_t b,
                                std::uint32_t prev_a, std::uint32_t prev_b,
                                const liberty::Corner& corner) const {
  if (!trained()) throw std::logic_error("TevotModel: not trained");
  requireFiniteCorner(corner);
  // Stack feature buffer, not a member scratch vector: prediction must
  // stay safe under concurrent serve workers sharing one model.
  std::array<float, FeatureEncoder::kMaxFeatures> features;
  const std::span<float> row(features.data(), encoder_.featureCount());
  encoder_.encode(a, b, prev_a, prev_b, corner, row);
  return flat_.predict(row);
}

void TevotModel::predictDelayBatch(std::span<const DelayQuery> queries,
                                   std::span<double> out) const {
  if (!trained()) throw std::logic_error("TevotModel: not trained");
  if (queries.size() != out.size()) {
    throw std::invalid_argument(
        "TevotModel::predictDelayBatch: queries/out size mismatch");
  }
  const std::size_t cols = encoder_.featureCount();
  std::vector<float> rows(queries.size() * cols);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const DelayQuery& q = queries[i];
    requireFiniteCorner(q.corner);
    encoder_.encode(q.a, q.b, q.prev_a, q.prev_b, q.corner,
                    std::span<float>(rows.data() + i * cols, cols));
  }
  flat_.predictBatch(rows.data(), queries.size(), cols, out.data());
}

util::Status TevotModel::validateForServing() const {
  if (!trained()) {
    return util::Status::invalidArgument("model is not trained");
  }
  if (!flat_.compiled() || flat_.treeCount() != forest_.trees().size()) {
    return util::Status::invalidArgument(
        "flat engine not compiled from the served forest");
  }
  // Canary predictions at the nominal corner plus the Liberty grid
  // extremes: the served engine must produce finite, physically
  // plausible (non-negative) delays across the full operating
  // envelope, bit-identical to the CART walk it was compiled from. A
  // model that only misbehaves at low voltage is caught here, at
  // reload, instead of mid-serve.
  const OperatingGrid grid = OperatingGrid::paper();
  const liberty::Corner canary_corners[] = {
      {1.00, 25.0},  // nominal
      {grid.v_start, grid.t_start},
      {grid.v_start, grid.t_end},
      {grid.v_end, grid.t_start},
      {grid.v_end, grid.t_end},
  };
  std::array<float, FeatureEncoder::kMaxFeatures> features;
  const std::span<float> row(features.data(), encoder_.featureCount());
  for (const liberty::Corner& corner : canary_corners) {
    for (const std::uint32_t word : {0u, 0xffffffffu, 0xa5a5a5a5u}) {
      const double delay = predictDelay(word, ~word, 0, 0, corner);
      if (!std::isfinite(delay) || delay < 0.0) {
        char where[64];
        std::snprintf(where, sizeof(where), " at (%.2f V, %.0f C)",
                      corner.voltage, corner.temperature);
        return util::Status::invalidArgument(
            "canary prediction not a finite non-negative delay: " +
            std::to_string(delay) + where);
      }
      encoder_.encode(word, ~word, 0, 0, corner, row);
      const double walk = static_cast<double>(forest_.predict(row));
      if (std::memcmp(&walk, &delay, sizeof(double)) != 0) {
        return util::Status::invalidArgument(
            "flat engine diverges from CART walk on canary: " +
            std::to_string(delay) + " vs " + std::to_string(walk));
      }
    }
  }
  return util::Status::okStatus();
}

std::vector<double> TevotModel::featureImportance() const {
  if (!trained()) throw std::logic_error("TevotModel: not trained");
  return ml::forestFeatureImportance(forest_.trees(),
                                     encoder_.featureCount());
}

void TevotModel::save(const std::string& path,
                      util::FaultInjector* faults) const {
  if (!trained()) throw std::logic_error("TevotModel::save: not trained");
  // Atomic: a full disk or dead fd surfaces as a typed error and the
  // destination keeps its previous contents — readers never observe a
  // truncated model. Concurrent saves to one destination each install
  // a complete model, last writer wins.
  util::writeFileAtomic(
      path, "TevotModel::save",
      [&](util::TextWriter& out) {
        out.text("tevot-model v2 history ")
            .number(config_.include_history ? 1 : 0)
            .text(" split ")
            .number(split_size_)
            .text("\n");
        ml::saveForest(out, forest_);
        out.text("end\n");
      },
      faults, path);
}

TevotModel TevotModel::load(const std::string& path) {
  const std::string text = util::readFile(path, "TevotModel::load");
  util::TextReader in(text);
  int history = 0;
  try {
    in.expect("tevot-model");
    if (const std::string_view version = in.word(); version != "v2") {
      in.fail("model format '" + std::string(version) +
              "' is not supported (expected v2; retrain the model)");
    }
    in.expect("history");
    history = in.integer<int>("history flag");
    in.expect("split");
    const int split_size = in.integer<int>("split size");
    if (split_size < 2) in.fail("split size below 2");
    TevotConfig config;
    config.include_history = history != 0;
    TevotModel model(config);
    model.split_size_ = split_size;
    // The forest loader runs the one structure check, against the
    // header's encoder width: a forest splitting on feature 129 under
    // a history=0 header (66 features) would read out of bounds on
    // every predict.
    model.forest_ =
        ml::loadForestRegressor(in, model.encoder_.featureCount());
    // The file ends with exactly "end\n": a cut anywhere, even inside
    // the last number, misses it, and trailing bytes mean a corrupt or
    // concatenated file, not a longer model.
    in.expectLastLine("end");
    model.compileFlat();
    return model;
  } catch (const util::StatusError& error) {
    util::Status status = error.status();
    const std::string mismatch =
        status.code == util::StatusCode::kInvalidArgument
            ? "forest inconsistent with header (history=" +
                  std::to_string(history) + "): "
            : "";
    status.message =
        "TevotModel::load " + path + ": " + mismatch + status.message;
    throw util::StatusError(std::move(status));
  }
}

}  // namespace tevot::core
