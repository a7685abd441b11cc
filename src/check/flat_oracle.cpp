#include "check/flat_oracle.hpp"

#include <cstring>
#include <sstream>
#include <vector>

#include "check/property.hpp"
#include "dta/dta.hpp"
#include "ml/flat_forest.hpp"
#include "ml/random_forest.hpp"
#include "tevot/model.hpp"
#include "tevot/operating_grid.hpp"

namespace tevot::check {
namespace {

[[noreturn]] void fail(const std::ostringstream& msg) {
  throw PropertyViolation(msg.str());
}

/// Random regression rows with features in [-2, 6): wider than the
/// training draw below, so batches also probe thresholds from the
/// outside (both branch directions at the root).
void fillRandomRow(util::Rng& rng, std::vector<float>& row) {
  for (float& value : row) {
    value = static_cast<float>(rng.nextDouble(-2.0, 6.0));
  }
}

ml::Dataset randomRegressionTask(util::Rng& rng, int rows, int cols) {
  ml::Dataset data;
  std::vector<float> row(static_cast<std::size_t>(cols));
  for (int r = 0; r < rows; ++r) {
    float sum = 0.0f;
    for (float& value : row) {
      value = static_cast<float>(rng.nextDouble(0.0, 4.0));
      sum += value;
    }
    data.append(row, sum * static_cast<float>(rng.nextDouble(0.5, 1.5)));
  }
  return data;
}

/// The exact double the batch kernel owes for one row: the scalar
/// walk's float, widened (see FlatForest's bit-identity contract).
double scalarAsBatchDouble(const ml::RandomForestRegressor& forest,
                           std::span<const float> row) {
  return static_cast<double>(forest.predict(row));
}

/// Forest-level: scalar flat predict and the batch kernel vs the
/// tree-walk, over `batches` random batches.
void checkForestLevel(std::uint64_t seed, util::Rng& rng, int batches) {
  const int cols = static_cast<int>(rng.nextInRange(2, 6));
  const int rows = static_cast<int>(rng.nextInRange(40, 90));
  const ml::Dataset data = randomRegressionTask(rng, rows, cols);
  ml::ForestParams params;
  params.n_trees = static_cast<int>(rng.nextInRange(3, 8));
  params.tree.max_depth = static_cast<int>(rng.nextInRange(3, 8));
  ml::RandomForestRegressor forest;
  util::Rng fit_rng = rng.fork();
  forest.fit(data, params, fit_rng);
  const ml::FlatForest flat = ml::FlatForest::fromRegressor(forest);
  expect(flat.compiled(), "flat forest did not compile");
  expect(flat.treeCount() == forest.trees().size(),
         "flat forest lost trees in compilation");

  for (int batch = 0; batch < batches; ++batch) {
    const std::size_t n = static_cast<std::size_t>(rng.nextInRange(1, 64));
    std::vector<float> flat_rows(n * static_cast<std::size_t>(cols));
    std::vector<float> row(static_cast<std::size_t>(cols));
    std::vector<double> batch_out(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      fillRandomRow(rng, row);
      std::memcpy(flat_rows.data() + i * row.size(), row.data(),
                  row.size() * sizeof(float));
    }
    flat.predictBatch(flat_rows.data(), n, row.size(), batch_out.data());
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const float> row_i(flat_rows.data() + i * row.size(),
                                         row.size());
      const float scalar_walk = forest.predict(row_i);
      const float scalar_flat = flat.predict(row_i);
      if (std::memcmp(&scalar_flat, &scalar_walk, sizeof(float)) != 0) {
        std::ostringstream msg;
        msg << "flat-bit-identity seed " << seed << " batch " << batch
            << " row " << i << ": scalar flat " << scalar_flat
            << " != tree-walk " << scalar_walk;
        fail(msg);
      }
      const double want = scalarAsBatchDouble(forest, row_i);
      if (std::memcmp(&batch_out[i], &want, sizeof(double)) != 0) {
        std::ostringstream msg;
        msg << "flat-bit-identity seed " << seed << " batch " << batch
            << " row " << i << ": batch kernel " << batch_out[i]
            << " != tree-walk " << want;
        fail(msg);
      }
    }
  }
}

/// Random synthetic traces: training data for bit-identity need not
/// be physically meaningful, only deterministic per seed.
std::vector<dta::DtaTrace> randomTraces(util::Rng& rng) {
  const core::OperatingGrid grid = core::OperatingGrid::paper();
  std::vector<dta::DtaTrace> traces(2);
  for (dta::DtaTrace& trace : traces) {
    trace.corner = {rng.nextDouble(grid.v_start, grid.v_end),
                    rng.nextDouble(grid.t_start, grid.t_end)};
    trace.workload_name = "flat-oracle";
    trace.samples.resize(30);
    std::uint32_t prev_a = rng.nextU32();
    std::uint32_t prev_b = rng.nextU32();
    for (dta::DtaSample& sample : trace.samples) {
      sample.prev_a = prev_a;
      sample.prev_b = prev_b;
      sample.a = prev_a = rng.nextU32();
      sample.b = prev_b = rng.nextU32();
      sample.delay_ps = rng.nextDouble(50.0, 500.0);
    }
  }
  return traces;
}

/// Model-level: predictDelayBatch and predictDelay vs the CART walk on
/// the encoded query, over random operand/corner batches spanning the
/// Liberty grid envelope.
void checkModelLevel(std::uint64_t seed, util::Rng& rng, int batches) {
  core::TevotConfig config;
  config.include_history = rng.nextBool();
  config.forest.n_trees = 4;
  config.forest.tree.max_depth = 6;
  core::TevotModel model(config);
  const std::vector<dta::DtaTrace> traces = randomTraces(rng);
  util::Rng train_rng = rng.fork();
  model.train(traces, train_rng);

  const core::OperatingGrid grid = core::OperatingGrid::paper();
  std::vector<float> row(model.encoder().featureCount());
  for (int batch = 0; batch < batches; ++batch) {
    const std::size_t n = static_cast<std::size_t>(rng.nextInRange(1, 32));
    std::vector<core::DelayQuery> queries(n);
    for (core::DelayQuery& query : queries) {
      query.a = rng.nextU32();
      query.b = rng.nextU32();
      query.prev_a = rng.nextU32();
      query.prev_b = rng.nextU32();
      query.corner = {rng.nextDouble(grid.v_start, grid.v_end),
                      rng.nextDouble(grid.t_start, grid.t_end)};
    }
    std::vector<double> batch_out(n, 0.0);
    model.predictDelayBatch(queries, batch_out);
    for (std::size_t i = 0; i < n; ++i) {
      const core::DelayQuery& query = queries[i];
      model.encoder().encode(query.a, query.b, query.prev_a, query.prev_b,
                             query.corner, row);
      const double want = scalarAsBatchDouble(model.forest(), row);
      const auto expect_walk = [&](const char* path, double got) {
        if (std::memcmp(&got, &want, sizeof(double)) == 0) return;
        std::ostringstream msg;
        msg << "flat-bit-identity seed " << seed << " model batch "
            << batch << " query " << i << ": " << path << " " << got
            << " != tree-walk " << want;
        fail(msg);
      };
      expect_walk("predictDelayBatch", batch_out[i]);
      expect_walk("predictDelay",
                  model.predictDelay(query.a, query.b, query.prev_a,
                                     query.prev_b, query.corner));
    }
  }
}

}  // namespace

void checkFlatForestBitIdentity(std::uint64_t seed, util::Rng& rng) {
  static_assert(kBatchesPerSeed % 2 == 0,
                "batches split evenly between the two levels");
  checkForestLevel(seed, rng, kBatchesPerSeed / 2);
  checkModelLevel(seed, rng, kBatchesPerSeed / 2);
}

}  // namespace tevot::check
