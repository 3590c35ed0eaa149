// Dataset invariants: row and column views agree, cached norms are exact,
// paper scale metadata flows through, and the columns are built once, on
// the first primal access, and never by a dual run.
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cluster/dist_solver.hpp"
#include "core/convergence.hpp"
#include "core/ridge_problem.hpp"
#include "core/seq_scd.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "store/format.hpp"
#include "store/shard_reader.hpp"
#include "store/streaming_dataset.hpp"

namespace tpa::data {
namespace {

Dataset small_dataset() {
  sparse::CsrMatrix matrix(3, 3, {0, 2, 2, 4}, {0, 2, 1, 2},
                           {1.0F, 2.0F, 3.0F, 4.0F});
  return Dataset("tiny", std::move(matrix), {1.0F, 0.0F, -1.0F});
}

TEST(Dataset, DimensionsAndAccess) {
  const auto dataset = small_dataset();
  EXPECT_EQ(dataset.num_examples(), 3u);
  EXPECT_EQ(dataset.num_features(), 3u);
  EXPECT_EQ(dataset.nnz(), 4u);
  EXPECT_EQ(dataset.name(), "tiny");
  ASSERT_EQ(dataset.labels().size(), 3u);
  EXPECT_EQ(dataset.labels()[2], -1.0F);
}

// Value of row r in a column view; 0 if absent.
sparse::Value column_at(const sparse::SparseVectorView& col, Index r) {
  const auto it = std::lower_bound(col.indices.begin(), col.indices.end(), r);
  if (it == col.indices.end() || *it != r) return 0.0F;
  return col.values[static_cast<std::size_t>(it - col.indices.begin())];
}

TEST(Dataset, RowAndColumnViewsAgree) {
  const auto dataset = small_dataset();
  for (Index r = 0; r < dataset.num_examples(); ++r) {
    for (Index c = 0; c < dataset.num_features(); ++c) {
      EXPECT_EQ(dataset.by_row().at(r, c),
                column_at(dataset.bucketed_cols().unpadded(c), r));
    }
  }
}

// The columns of a CSR scanned straight from its rows, without
// sparse::transpose (which the Dataset builds its columns with): per
// column, its (row, value) entries in row order and its squared norm
// summed in double in that order.
struct ScannedColumns {
  std::vector<std::vector<Index>> rows;
  std::vector<std::vector<sparse::Value>> values;
  std::vector<double> norms;
};

ScannedColumns scan_columns(const sparse::CsrMatrix& by_row) {
  ScannedColumns cols;
  cols.rows.resize(by_row.cols());
  cols.values.resize(by_row.cols());
  cols.norms.assign(by_row.cols(), 0.0);
  for (Index r = 0; r < by_row.rows(); ++r) {
    const auto row = by_row.row(r);
    for (std::size_t k = 0; k < row.nnz(); ++k) {
      const Index c = row.indices[k];
      const double v = row.values[k];
      cols.rows[c].push_back(r);
      cols.values[c].push_back(row.values[k]);
      cols.norms[c] += v * v;
    }
  }
  return cols;
}

TEST(Dataset, CachedNormsMatchMatrices) {
  const auto dataset = small_dataset();
  const auto row_norms = dataset.by_row().row_squared_norms();
  const auto col_norms = scan_columns(dataset.by_row()).norms;
  for (Index r = 0; r < dataset.num_examples(); ++r) {
    EXPECT_DOUBLE_EQ(dataset.row_squared_norms()[r], row_norms[r]);
  }
  for (Index c = 0; c < dataset.num_features(); ++c) {
    EXPECT_DOUBLE_EQ(dataset.col_squared_norms()[c], col_norms[c]);
  }
}

TEST(Dataset, RejectsLabelCountMismatch) {
  sparse::CsrMatrix matrix(2, 2, {0, 0, 0}, {}, {});
  EXPECT_THROW(Dataset("bad", std::move(matrix), {1.0F}),
               std::invalid_argument);
}

TEST(Dataset, PaperScaleIsOptionalAndSettable) {
  auto dataset = small_dataset();
  EXPECT_FALSE(dataset.paper_scale().has_value());
  dataset.set_paper_scale(PaperScale{"webspam", 10, 20, 30});
  ASSERT_TRUE(dataset.paper_scale().has_value());
  EXPECT_EQ(dataset.paper_scale()->name, "webspam");
  EXPECT_EQ(dataset.paper_scale()->nnz, 30u);
}

TEST(Dataset, MemoryBytesIncludesLabels) {
  const auto dataset = small_dataset();
  EXPECT_EQ(dataset.memory_bytes(),
            dataset.by_row().memory_bytes() + 3 * sizeof(float));
}

Dataset webspam(Index examples, Index features) {
  WebspamLikeConfig config;
  config.num_examples = examples;
  config.num_features = features;
  config.seed = 2024;
  return make_webspam_like(config);
}

// The rows-only figure: what a Dataset holds before any column is built.
std::size_t rows_only_bytes(const Dataset& dataset) {
  const std::vector<float> labels(dataset.labels().begin(),
                                  dataset.labels().end());
  return Dataset("rows", dataset.by_row(), labels).resident_bytes();
}

// The bucketed columns of `dataset` are the columns of its CSR: the
// scanned entries unpadded, zero-valued repeats of the last index as
// padding, and bit-equal norms.
void expect_columns_match_rows(const Dataset& dataset) {
  const auto expected = scan_columns(dataset.by_row());
  const auto& cols = dataset.bucketed_cols();
  ASSERT_EQ(cols.count(), dataset.num_features());
  ASSERT_EQ(cols.dim(), dataset.num_examples());
  for (Index c = 0; c < dataset.num_features(); ++c) {
    const auto& rows = expected.rows[c];
    const auto& values = expected.values[c];
    const auto exact = cols.unpadded(c);
    const auto padded = cols.padded(c);
    ASSERT_EQ(exact.nnz(), rows.size()) << "column " << c;
    ASSERT_EQ(padded.nnz() % 8, 0u) << "column " << c;
    ASSERT_GE(padded.nnz(), exact.nnz()) << "column " << c;
    for (std::size_t k = 0; k < exact.nnz(); ++k) {
      EXPECT_EQ(exact.indices[k], rows[k]);
      EXPECT_EQ(exact.values[k], values[k]);
    }
    for (std::size_t k = 0; k < padded.nnz(); ++k) {
      const bool real = k < rows.size();
      EXPECT_EQ(padded.indices[k], real ? rows[k] : rows.back());
      EXPECT_EQ(padded.values[k], real ? values[k] : 0.0F);
    }
    EXPECT_EQ(dataset.col_squared_norms()[c], expected.norms[c])
        << "column " << c;
  }
}

// A store shard decodes to a Dataset like any other: it holds its rows
// only, and a primal problem on it builds its columns on first use.
TEST(Dataset, StoreShardServesAPrimalProblem) {
  const auto source = webspam(600, 300);
  const sparse::LabeledMatrix data{
      source.by_row(),
      std::vector<float>(source.labels().begin(), source.labels().end())};
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("tpa_dataset_store_" + std::to_string(getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  store::write_store(dir.string(), "ds", data, 3);
  const store::StoreStreamingDataset disk(store::ShardReader::open(
      (dir / "ds.manifest").string()));
  const auto shard = store::decode_shard(disk, 1);
  std::filesystem::remove_all(dir);

  const Dataset& dataset = shard.dataset;
  EXPECT_EQ(dataset.resident_bytes(), rows_only_bytes(dataset));
  const core::RidgeProblem problem(dataset, 1e-3);
  core::SeqScdSolver solver(problem, core::Formulation::kPrimal, 3);
  EXPECT_GT(dataset.resident_bytes(), rows_only_bytes(dataset));
  const double before = solver.duality_gap(problem);
  for (int epoch = 0; epoch < 5; ++epoch) solver.run_epoch();
  EXPECT_LT(solver.duality_gap(problem), before);
  expect_columns_match_rows(dataset);
}

// Eight threads reach for the columns together: one build, and every
// thread — through the Dataset or a copy of it — sees the same storage.
TEST(Dataset, ConcurrentFirstUseBuildsTheColumnsOnce) {
  const auto dataset = webspam(1024, 2048);
  const Dataset copy = dataset;  // shares the build
  constexpr int kThreads = 8;
  std::vector<const sparse::BucketedLayout*> layouts(kThreads);
  std::vector<const double*> norms(kThreads);
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      const Dataset& mine = t % 2 == 0 ? dataset : copy;
      layouts[t] = &mine.bucketed_cols();
      norms[t] = mine.col_squared_norms().data();
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(layouts[t], layouts[0]) << "thread " << t;
    EXPECT_EQ(norms[t], norms[0]) << "thread " << t;
  }
  EXPECT_EQ(copy.resident_bytes(), dataset.resident_bytes());
  EXPECT_GT(dataset.resident_bytes(), rows_only_bytes(dataset));
  expect_columns_match_rows(dataset);
}

// Exposes the workers' shards of a sync cluster run.
class ShardedDistributedSolver : public cluster::DistributedSolver {
 public:
  using DistributedSolver::DistributedSolver;
  const Dataset& shard(std::size_t k) const { return core(k).shard; }
};

// A dual run reads rows only: neither run_solver nor the cluster driver
// builds a column of any Dataset it touches.  A primal solver builds them,
// once, at construction.
TEST(Dataset, DualRunsNeverBuildColumns) {
  const auto global = webspam(256, 512);
  const std::size_t rows_only = global.resident_bytes();
  ASSERT_EQ(rows_only, rows_only_bytes(global));
  const core::RidgeProblem problem(global, 1e-3);
  core::RunOptions options;
  options.max_epochs = 3;
  options.gap_threads = 4;

  core::SeqScdSolver dual(problem, core::Formulation::kDual, 7);
  core::run_solver(dual, problem, options);
  EXPECT_EQ(global.resident_bytes(), rows_only);

  cluster::DistConfig config;
  config.formulation = core::Formulation::kDual;
  config.num_workers = 4;
  config.lambda = 1e-3;
  ShardedDistributedSolver cluster_solver(global, config);
  std::vector<std::size_t> shard_bytes;
  for (std::size_t k = 0; k < 4; ++k) {
    const Dataset& shard = cluster_solver.shard(k);
    EXPECT_EQ(shard.resident_bytes(), rows_only_bytes(shard)) << k;
    shard_bytes.push_back(shard.resident_bytes());
  }
  cluster::run_distributed(cluster_solver, options);
  EXPECT_EQ(global.resident_bytes(), rows_only);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(cluster_solver.shard(k).resident_bytes(), shard_bytes[k]) << k;
  }

  const core::SeqScdSolver primal(problem, core::Formulation::kPrimal, 7);
  EXPECT_GT(global.resident_bytes(), rows_only);
}

}  // namespace
}  // namespace tpa::data
