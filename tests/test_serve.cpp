// Serving subsystem: model normalisation, the sparse scoring kernels, the
// hot-reload registry, serving metrics, and the batcher's concurrency edges
// (coalescing, drain-task fan-out, racing producers, queue-full shedding,
// reload during an in-flight batch).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "data/generators.hpp"
#include "linalg/vector_ops.hpp"
#include "serve/model_registry.hpp"
#include "serve/request_batcher.hpp"
#include "serve/scorer.hpp"
#include "serve/server.hpp"

namespace tpa::serve {
namespace {

using sparse::CsrMatrix;
using sparse::Index;

core::SavedModel primal_model(std::vector<float> beta, double lambda = 1e-3) {
  core::SavedModel model;
  model.formulation = core::Formulation::kPrimal;
  model.lambda = lambda;
  model.weights = std::move(beta);
  return model;
}

CsrMatrix two_row_matrix() {
  // Row 0 is scattered (gather path), row 1 is contiguous (dense fast path).
  return CsrMatrix(2, 8, {0, 3, 7}, {0, 3, 6, 2, 3, 4, 5},
                   {1.0F, 2.0F, -1.0F, 0.5F, 1.5F, -2.0F, 4.0F});
}

TEST(ServableModel, PrimalWeightsPassThrough) {
  const auto model =
      ServableModel::from_saved(primal_model({1.0F, -2.0F, 3.0F}, 0.5), 7);
  EXPECT_EQ(model.version, 7u);
  EXPECT_EQ(model.trained_as, core::Formulation::kPrimal);
  EXPECT_EQ(model.beta, (std::vector<float>{1.0F, -2.0F, 3.0F}));
}

TEST(ServableModel, DualMapsSharedThroughEq5) {
  core::SavedModel saved;
  saved.formulation = core::Formulation::kDual;
  saved.lambda = 0.5;
  saved.weights = {9.0F, 9.0F};       // dual alphas: not used for scoring
  saved.shared = {1.0F, -0.5F, 2.0F};  // w̄ = Aᵀα
  const auto model = ServableModel::from_saved(saved, 1);
  EXPECT_EQ(model.beta, (std::vector<float>{2.0F, -1.0F, 4.0F}));
}

TEST(ServableModel, RejectsDualWithoutLambda) {
  core::SavedModel saved;
  saved.formulation = core::Formulation::kDual;
  saved.lambda = 0.0;
  saved.shared = {1.0F};
  EXPECT_THROW(ServableModel::from_saved(saved, 1), std::invalid_argument);
}

TEST(ServableModel, RejectsEmptyWeights) {
  EXPECT_THROW(ServableModel::from_saved(primal_model({}), 1),
               std::invalid_argument);
}

TEST(Scorer, MatchesSparseDotOnBothKernelPaths) {
  const auto matrix = two_row_matrix();
  const std::vector<float> beta = {0.5F, 1.0F, -1.0F, 2.0F,
                                   0.25F, -0.5F, 3.0F, 1.0F};
  for (Index r = 0; r < matrix.rows(); ++r) {
    EXPECT_DOUBLE_EQ(score_row(matrix.row(r), beta),
                     linalg::sparse_dot(matrix.row(r), beta));
  }
}

TEST(Scorer, EmptyRowAndEmptyModelScoreZero) {
  const CsrMatrix matrix(1, 4, {0, 0}, {}, {});
  const std::vector<float> beta = {1.0F, 1.0F, 1.0F, 1.0F};
  EXPECT_EQ(score_row(matrix.row(0), beta), 0.0);
  EXPECT_EQ(score_row(two_row_matrix().row(0), {}), 0.0);
}

TEST(Scorer, ClipsRowsWiderThanModel) {
  const auto matrix = two_row_matrix();
  // Model covers only columns [0, 4): row 0 keeps indices 0 and 3, dropping
  // column 6; row 1 keeps columns 2 and 3.
  const std::vector<float> beta = {1.0F, 1.0F, 1.0F, 1.0F};
  EXPECT_DOUBLE_EQ(score_row(matrix.row(0), beta), 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(score_row(matrix.row(1), beta), 0.5 + 1.5);
}

TEST(Scorer, ScoreRowsValidatesRangeAndOutput) {
  const auto matrix = two_row_matrix();
  const std::vector<float> beta(8, 1.0F);
  std::vector<float> out(1);
  EXPECT_THROW(score_rows(matrix, 0, 3, beta, out), std::out_of_range);
  EXPECT_THROW(score_rows(matrix, 0, 2, beta, out), std::invalid_argument);
}

TEST(Scorer, ScoreMatrixMatchesPredict) {
  data::WebspamLikeConfig config;
  config.num_examples = 300;
  config.num_features = 128;
  const auto dataset = data::make_webspam_like(config);
  std::vector<float> beta(static_cast<std::size_t>(dataset.num_features()));
  for (std::size_t m = 0; m < beta.size(); ++m) {
    beta[m] = 0.01F * static_cast<float>(m % 13) - 0.05F;
  }
  const auto model = ServableModel::from_saved(primal_model(beta), 1);
  util::ThreadPool pool(4);
  const auto scored = score_matrix(pool, dataset.by_row(), model);
  const auto expected = core::predict(dataset, beta);
  ASSERT_EQ(scored.size(), expected.size());
  for (std::size_t i = 0; i < scored.size(); ++i) {
    EXPECT_NEAR(scored[i], expected[i], 1e-4) << "row " << i;
  }
}

// The in-place overload is the allocation-free hot path the batcher reuses a
// buffer with; it must reproduce the allocating version exactly and reject
// missized output buffers.
TEST(Scorer, ScoreMatrixInPlaceMatchesAllocating) {
  data::WebspamLikeConfig config;
  config.num_examples = 300;
  config.num_features = 128;
  const auto dataset = data::make_webspam_like(config);
  std::vector<float> beta(static_cast<std::size_t>(dataset.num_features()),
                          0.125F);
  const auto model = ServableModel::from_saved(primal_model(beta), 1);
  util::ThreadPool pool(4);
  const auto allocated = score_matrix(pool, dataset.by_row(), model);
  std::vector<float> out(static_cast<std::size_t>(dataset.num_examples()),
                         -1.0F);
  score_matrix(pool, dataset.by_row(), model, out);
  EXPECT_EQ(out, allocated);

  std::vector<float> wrong_size(allocated.size() + 1);
  EXPECT_THROW(score_matrix(pool, dataset.by_row(), model, wrong_size),
               std::invalid_argument);
}

TEST(LatencyHistogramTest, QuantilesAreMonotoneBucketEdges) {
  LatencyHistogram histogram;
  for (int i = 0; i < 90; ++i) histogram.record(10e-6);   // [8, 16) µs bucket
  for (int i = 0; i < 10; ++i) histogram.record(1000e-6);  // [512, 1024) µs
  EXPECT_EQ(histogram.total_count(), 100u);
  EXPECT_DOUBLE_EQ(histogram.quantile_us(0.5), 16.0);
  EXPECT_DOUBLE_EQ(histogram.quantile_us(0.9), 16.0);
  EXPECT_DOUBLE_EQ(histogram.quantile_us(0.99), 1024.0);
  EXPECT_LE(histogram.quantile_us(0.5), histogram.quantile_us(0.99));
}

TEST(LatencyHistogramTest, EmptyAndExtremeValues) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.quantile_us(0.5), 0.0);
  histogram.record(0.0);      // underflow → first bucket
  histogram.record(1e9);      // overflow → last bucket
  EXPECT_EQ(histogram.total_count(), 2u);
  EXPECT_GT(histogram.quantile_us(1.0), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleIsEveryQuantile) {
  LatencyHistogram histogram;
  histogram.record(100e-6);  // 100 µs → [64, 128) bucket, upper edge 128
  EXPECT_EQ(histogram.total_count(), 1u);
  EXPECT_DOUBLE_EQ(histogram.quantile_us(0.0), 128.0);
  EXPECT_DOUBLE_EQ(histogram.quantile_us(0.5), 128.0);
  EXPECT_DOUBLE_EQ(histogram.quantile_us(1.0), 128.0);
}

TEST(LatencyHistogramTest, OverflowSaturatesAtTopBucketEdge) {
  LatencyHistogram histogram;
  histogram.record(1e9);  // 10^15 µs, far beyond the 2^31 µs top bucket start
  EXPECT_DOUBLE_EQ(histogram.quantile_us(1.0), 4294967296.0);  // 2^32 µs
}

TEST(LatencyHistogramTest, ResetClearsSamples) {
  LatencyHistogram histogram;
  histogram.record(100e-6);
  histogram.reset();
  EXPECT_EQ(histogram.total_count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.quantile_us(0.5), 0.0);
}

TEST(ServingMetricsTest, SnapshotAggregatesCounters) {
  ServingMetrics metrics;
  metrics.record_accept();
  metrics.record_accept();
  metrics.record_reject();
  metrics.record_batch(2);
  metrics.record_latency(50e-6);
  metrics.record_latency(100e-6);
  metrics.record_reload();
  const auto stats = metrics.snapshot();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 2.0);
  EXPECT_GT(stats.throughput_rps, 0.0);
  EXPECT_GT(stats.p99_us, 0.0);
  EXPECT_NE(stats.summary().find("served 2 req"), std::string::npos);
}

TEST(ServingMetricsTest, ResetStartsAFreshWindow) {
  ServingMetrics metrics;
  metrics.record_accept();
  metrics.record_reject();
  metrics.record_batch(4);
  metrics.record_latency(50e-6);
  metrics.record_reload();
  metrics.reset();

  const auto zeroed = metrics.snapshot();
  EXPECT_EQ(zeroed.accepted, 0u);
  EXPECT_EQ(zeroed.rejected, 0u);
  EXPECT_EQ(zeroed.completed, 0u);
  EXPECT_EQ(zeroed.batches, 0u);
  EXPECT_EQ(zeroed.reloads, 0u);
  EXPECT_DOUBLE_EQ(zeroed.p99_us, 0.0);
  EXPECT_DOUBLE_EQ(zeroed.throughput_rps, 0.0);

  // Events after the reset land in the new window: counts, the latency
  // histogram and the wall clock all restart together.
  metrics.record_accept();
  metrics.record_batch(1);
  metrics.record_latency(50e-6);
  const auto fresh = metrics.snapshot();
  EXPECT_EQ(fresh.accepted, 1u);
  EXPECT_EQ(fresh.completed, 1u);
  EXPECT_EQ(fresh.batches, 1u);
  EXPECT_GT(fresh.p99_us, 0.0);
  EXPECT_GE(fresh.wall_seconds, 0.0);
}

TEST(ModelRegistryTest, StartsEmptyAndVersionsPublishes) {
  ModelRegistry registry;
  EXPECT_EQ(registry.current(), nullptr);
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_EQ(registry.publish(primal_model({1.0F})), 1u);
  EXPECT_EQ(registry.publish(primal_model({2.0F})), 2u);
  EXPECT_EQ(registry.version(), 2u);
  EXPECT_EQ(registry.current()->beta[0], 2.0F);
}

TEST(ModelRegistryTest, OldSnapshotSurvivesPublish) {
  ModelRegistry registry;
  registry.publish(primal_model({1.0F}));
  const auto v1 = registry.current();
  registry.publish(primal_model({2.0F}));
  EXPECT_EQ(v1->beta[0], 1.0F);  // in-flight batch keeps scoring v1
  EXPECT_EQ(registry.current()->beta[0], 2.0F);
}

TEST(ModelRegistryTest, BadFileLeavesLiveModelUntouched) {
  ModelRegistry registry;
  registry.publish(primal_model({1.0F}));
  const auto path =
      (std::filesystem::temp_directory_path() / "tpa_serve_bad.tpam").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "TPAMgarbage-that-is-not-a-model";
  }
  EXPECT_THROW(registry.publish_file(path), std::runtime_error);
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_EQ(registry.current()->beta[0], 1.0F);
  std::filesystem::remove(path);
}

TEST(ModelRegistryTest, NonFiniteModelLeavesLiveModelUntouched) {
  ModelRegistry registry;
  registry.publish(primal_model({1.0F}));
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_THROW(registry.publish(primal_model({2.0F, nan})),
               core::NonFiniteModel);
  auto dual = primal_model({2.0F});
  dual.formulation = core::Formulation::kDual;
  dual.lambda = 1e-3;
  dual.shared = {-inf};
  EXPECT_THROW(registry.publish(dual), core::NonFiniteModel);
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_EQ(registry.current()->beta, (std::vector<float>{1.0F}));
}

TEST(ModelRegistryTest, DualModelWhoseBetaOverflowsIsRefused) {
  // Every stored entry is finite, but β = w̄ · (1/λ) is not: 1e36 · 1e3
  // overflows float.
  ModelRegistry registry;
  registry.publish(primal_model({1.0F}));
  auto dual = primal_model({0.0F, 0.0F});
  dual.formulation = core::Formulation::kDual;
  dual.lambda = 1e-3;
  dual.shared = {1e36F, 0.5F};
  EXPECT_THROW(registry.publish(dual), core::NonFiniteModel);
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_EQ(registry.current()->beta, (std::vector<float>{1.0F}));
}

TEST(ModelRegistryTest, PublishFileRoundTrips) {
  const auto path =
      (std::filesystem::temp_directory_path() / "tpa_serve_ok.tpam").string();
  core::write_model_file(path, primal_model({3.0F, -1.0F}));
  ModelRegistry registry;
  EXPECT_EQ(registry.publish_file(path), 1u);
  EXPECT_EQ(registry.current()->beta,
            (std::vector<float>{3.0F, -1.0F}));
  std::filesystem::remove(path);
}

// --- Reload retry ----------------------------------------------------------

TEST(ServerTest, ReloadRetriesRideOutATornWrite) {
  // A trainer checkpointing with write-to-tmp + rename can race a reader:
  // the first open may see a truncated file.  reload() must retry after a
  // short backoff and pick up the completed model once the writer finishes.
  const auto path =
      (std::filesystem::temp_directory_path() / "tpa_serve_torn.tpam")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "TPAM-half-a-header";  // torn: magic but no valid payload
  }
  ServerConfig config;
  config.reload_retries = 5;
  config.reload_backoff_ms = 30;
  Server server(config);

  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    core::write_model_file(path, primal_model({4.0F, 2.0F}));
  });
  const auto version = server.reload(path);
  writer.join();

  EXPECT_EQ(version, 1u);
  ASSERT_NE(server.registry().current(), nullptr);
  EXPECT_EQ(server.registry().current()->beta,
            (std::vector<float>{4.0F, 2.0F}));
  std::filesystem::remove(path);
}

TEST(ServerTest, ReloadRethrowsAfterExhaustedRetriesAndKeepsOldModel) {
  const auto path =
      (std::filesystem::temp_directory_path() / "tpa_serve_dead.tpam")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "TPAMpermanently-broken";
  }
  ServerConfig config;
  config.reload_retries = 2;
  config.reload_backoff_ms = 1;
  Server server(config);
  server.publish(primal_model({1.0F}));

  // Every attempt fails: the last error surfaces, the v1 model stays live
  // and keeps serving.
  EXPECT_THROW(server.reload(path), std::runtime_error);
  EXPECT_EQ(server.registry().version(), 1u);
  EXPECT_EQ(server.registry().current()->beta[0], 1.0F);
  std::filesystem::remove(path);
}

TEST(ServerTest, ReloadRefusesANonFiniteModelWithoutRetrying) {
  // The file's digest verifies, so a retry would read the same NaN: the
  // refusal surfaces at once instead of after a 10 s backoff, and the live
  // model keeps serving.
  ServerConfig config;
  config.reload_retries = 3;
  config.reload_backoff_ms = 10000;
  Server server(config);
  server.publish(primal_model({1.0F}));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(server.reload(TPA_TESTDATA_DIR "/nan_weight.tpam"),
               core::NonFiniteModel);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(2000));
  EXPECT_EQ(server.registry().version(), 1u);
  EXPECT_EQ(server.registry().current()->beta[0], 1.0F);
}

TEST(ServerTest, ReloadWithZeroRetriesFailsFast) {
  ServerConfig config;
  config.reload_retries = 0;
  Server server(config);
  EXPECT_THROW(server.reload("/no/such/model.tpam"), std::runtime_error);
  EXPECT_EQ(server.registry().version(), 0u);
}

// --- Batcher edge cases ----------------------------------------------------

/// Executor that scores nothing: fulfils each promise with the batch's size
/// so tests can observe coalescing.
RequestBatcher::BatchFn count_executor(std::atomic<int>* batches) {
  return [batches](std::vector<Request>& batch) {
    if (batches != nullptr) batches->fetch_add(1);
    for (auto& request : batch) {
      request.result.set_value(static_cast<float>(batch.size()));
    }
  };
}

TEST(RequestBatcherTest, DrainWithNoRequestsReturnsImmediately) {
  util::ThreadPool pool(2);
  RequestBatcher batcher({}, pool, count_executor(nullptr));
  batcher.drain();  // must not hang; no batch may be formed
  EXPECT_EQ(batcher.queued(), 0u);
}

TEST(RequestBatcherTest, SingleRequestResolvesWithoutCompany) {
  util::ThreadPool pool(2);
  BatcherConfig config;
  config.max_batch_size = 64;
  RequestBatcher batcher(config, pool, count_executor(nullptr));
  const auto matrix = two_row_matrix();
  auto result = batcher.submit(matrix.row(0));
  ASSERT_TRUE(result.accepted());
  // A lone request runs as a batch of one: nothing waits for the batch to
  // fill.
  EXPECT_EQ(result.prediction.get(), 1.0F);
}

/// Executor that holds every batch until open(), recording each batch's
/// size (in start order) and how many batches have started.
struct GatedExecutor {
  std::promise<void> gate;
  std::shared_future<void> gate_opened = gate.get_future().share();
  std::once_flag opened;
  std::atomic<int> started{0};
  std::mutex sizes_mutex;
  std::vector<std::size_t> sizes;

  void open() {
    std::call_once(opened, [this] { gate.set_value(); });
  }

  RequestBatcher::BatchFn fn() {
    return [this](std::vector<Request>& batch) {
      {
        const std::lock_guard<std::mutex> lock(sizes_mutex);
        sizes.push_back(batch.size());
      }
      started.fetch_add(1);
      gate_opened.wait();
      for (auto& request : batch) {
        request.result.set_value(static_cast<float>(batch.size()));
      }
    };
  }

  /// Waits up to 10 s for `count` batches to have started.
  bool wait_started(int count) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < count) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }
};

/// Opens the gate when it goes out of scope; declared after the batcher, it
/// lets the batcher's destructor drain even when an assertion returns early.
struct OpenOnExit {
  GatedExecutor& executor;
  ~OpenOnExit() { executor.open(); }
};

TEST(RequestBatcherTest, CoalescesBackloggedRequestsIntoBatches) {
  // One worker, so one drain task: while it holds a batch of one, 256
  // requests back up behind it, and released it takes them as exactly 16
  // full batches.
  util::ThreadPool pool(1);
  BatcherConfig config;
  config.max_batch_size = 16;
  GatedExecutor executor;
  RequestBatcher batcher(config, pool, executor.fn());
  const OpenOnExit open_on_exit{executor};
  const auto matrix = two_row_matrix();
  auto first = batcher.submit(matrix.row(0));
  ASSERT_TRUE(first.accepted());
  ASSERT_TRUE(executor.wait_started(1));

  std::vector<std::future<float>> results;
  for (int i = 0; i < 256; ++i) {
    auto result = batcher.submit(matrix.row(i % 2));
    ASSERT_TRUE(result.accepted());
    results.push_back(std::move(result.prediction));
  }
  EXPECT_EQ(batcher.queued(), 256u);
  executor.open();
  EXPECT_EQ(first.prediction.get(), 1.0F);
  for (auto& r : results) EXPECT_EQ(r.get(), 16.0F);
  batcher.drain();
  const std::vector<std::size_t> expected_sizes = {
      1, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16};
  EXPECT_EQ(executor.sizes, expected_sizes);
}

TEST(RequestBatcherTest, SecondBatchStartsOnlyOnceAFullBatchWaits) {
  // Two workers.  While one batch runs, requests short of a full batch wait
  // for it rather than wake the idle worker; a full batch waiting starts a
  // second drain task, which runs alongside the first.
  util::ThreadPool pool(2);
  BatcherConfig config;
  config.max_batch_size = 4;
  GatedExecutor executor;
  RequestBatcher batcher(config, pool, executor.fn());
  const OpenOnExit open_on_exit{executor};
  const auto matrix = two_row_matrix();
  std::vector<std::future<float>> results;
  const auto submit = [&] {
    auto result = batcher.submit(matrix.row(0));
    ASSERT_TRUE(result.accepted());
    results.push_back(std::move(result.prediction));
  };

  submit();
  ASSERT_TRUE(executor.wait_started(1));
  for (int i = 0; i < 3; ++i) submit();
  // Give a wrongly started second drain task time to show itself.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(executor.started.load(), 1);
  EXPECT_EQ(batcher.queued(), 3u);

  submit();  // the fourth waiting request completes a full batch
  ASSERT_TRUE(executor.wait_started(2));
  EXPECT_EQ(batcher.queued(), 0u);
  {
    const std::lock_guard<std::mutex> lock(executor.sizes_mutex);
    EXPECT_EQ(executor.sizes, (std::vector<std::size_t>{1, 4}));
  }

  executor.open();
  EXPECT_EQ(results[0].get(), 1.0F);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].get(), 4.0F);
  }
  batcher.drain();
  EXPECT_EQ(executor.started.load(), 2);
}

TEST(RequestBatcherTest, ConcurrentProducersResolveEveryAcceptedRequestOnce) {
  // Four producers race each other, a drain() loop and, at the end, the
  // destructor, which meets whatever backlog is left.  Row r holds the
  // single value r, so each future names the request it belongs to.
  constexpr int kRows = 64;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 4000;
  std::vector<sparse::Offset> offsets(kRows + 1);
  std::vector<Index> indices(kRows);
  std::vector<float> values(kRows);
  for (int r = 0; r < kRows; ++r) {
    offsets[r + 1] = static_cast<sparse::Offset>(r + 1);
    indices[r] = static_cast<Index>(r);
    values[r] = static_cast<float>(r);
  }
  const CsrMatrix matrix(kRows, kRows, std::move(offsets), std::move(indices),
                         std::move(values));

  std::atomic<std::uint64_t> executed{0};
  std::vector<std::vector<std::future<float>>> accepted(kProducers);
  std::vector<std::vector<int>> accepted_rows(kProducers);
  util::ThreadPool pool(3);
  {
    BatcherConfig config;
    config.max_batch_size = 8;
    config.queue_capacity = 64;
    RequestBatcher batcher(config, pool, [&](std::vector<Request>& batch) {
      for (auto& request : batch) {
        executed.fetch_add(1);
        request.result.set_value(request.row.values[0]);
      }
    });
    std::atomic<int> finished{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const int row = (7 * p + i) % kRows;
          auto result = batcher.submit(matrix.row(row));
          if (result.accepted()) {
            accepted[p].push_back(std::move(result.prediction));
            accepted_rows[p].push_back(row);
          } else {
            EXPECT_EQ(result.status, Admission::kQueueFull);
            std::this_thread::yield();
          }
        }
        finished.fetch_add(1);
      });
    }
    while (finished.load() < kProducers) batcher.drain();
    for (auto& producer : producers) producer.join();
  }
  std::uint64_t total = 0;
  for (int p = 0; p < kProducers; ++p) {
    total += accepted[p].size();
    for (std::size_t i = 0; i < accepted[p].size(); ++i) {
      ASSERT_EQ(accepted[p][i].get(),
                static_cast<float>(accepted_rows[p][i]));
    }
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(executed.load(), total);
}

TEST(RequestBatcherTest, ShedsLoadWhenQueueFull) {
  util::ThreadPool pool(1);
  BatcherConfig config;
  config.max_batch_size = 1;
  config.queue_capacity = 2;

  std::atomic<bool> started{false};
  std::promise<void> gate;
  auto gate_opened = gate.get_future().share();
  RequestBatcher batcher(
      config, pool, [&](std::vector<Request>& batch) {
        started.store(true);
        gate_opened.wait();  // hold the only in-flight slot
        for (auto& request : batch) request.result.set_value(0.0F);
      });

  const auto matrix = two_row_matrix();
  auto first = batcher.submit(matrix.row(0));
  ASSERT_TRUE(first.accepted());
  while (!started.load()) std::this_thread::yield();

  // The in-flight batch holds the only drain task, so the queue backs up to
  // capacity and admission control starts shedding with a typed verdict.
  std::vector<std::future<float>> accepted;
  std::size_t rejected = 0;
  for (int i = 0; i < 16; ++i) {
    auto result = batcher.submit(matrix.row(0));
    if (result.accepted()) {
      accepted.push_back(std::move(result.prediction));
    } else {
      EXPECT_EQ(result.status, Admission::kQueueFull);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted.size(), 2u);
  EXPECT_EQ(rejected, 14u);

  gate.set_value();
  // Every accepted request must still resolve after the stall clears.
  EXPECT_NO_THROW(first.prediction.get());
  for (auto& result : accepted) EXPECT_NO_THROW(result.get());
}

TEST(RequestBatcherTest, DestructorDrainsAcceptedRequests) {
  util::ThreadPool pool(2);
  const auto matrix = two_row_matrix();
  std::vector<std::future<float>> results;
  {
    BatcherConfig config;
    config.max_batch_size = 8;
    RequestBatcher batcher(config, pool, count_executor(nullptr));
    for (int i = 0; i < 5; ++i) {
      auto result = batcher.submit(matrix.row(0));
      ASSERT_TRUE(result.accepted());
      results.push_back(std::move(result.prediction));
    }
  }
  for (auto& result : results) EXPECT_NO_THROW(result.get());
}

TEST(RequestBatcherTest, AdmissionVerdictsHaveNames) {
  EXPECT_STREQ(admission_name(Admission::kShutdown), "shutdown");
  EXPECT_STREQ(admission_name(Admission::kQueueFull), "queue-full");
  EXPECT_STREQ(admission_name(Admission::kNoModel), "no-model");
  EXPECT_STREQ(admission_name(Admission::kAccepted), "accepted");
}

TEST(RequestBatcherTest, ReloadDuringInFlightBatchKeepsSnapshot) {
  // A batch that is already executing keeps the model it snapshotted even if
  // a publish lands mid-execution; nothing is dropped.
  ModelRegistry registry;
  registry.publish(primal_model({1.0F, 1.0F, 1.0F, 1.0F, 1.0F, 1.0F, 1.0F,
                                 1.0F}));
  util::ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::promise<void> gate;
  auto gate_opened = gate.get_future().share();
  BatcherConfig config;
  config.max_batch_size = 4;
  RequestBatcher batcher(config, pool, [&](std::vector<Request>& batch) {
    const auto model = registry.current();  // snapshot at execution start
    started.store(true);
    gate_opened.wait();  // reload happens here, mid-batch
    for (auto& request : batch) {
      request.result.set_value(
          static_cast<float>(score_row(request.row, model->beta)));
    }
  });

  const auto matrix = two_row_matrix();  // row 0 sums to 2 with all-ones beta
  auto in_flight = batcher.submit(matrix.row(0));
  ASSERT_TRUE(in_flight.accepted());
  while (!started.load()) std::this_thread::yield();

  registry.publish(primal_model(std::vector<float>(8, 10.0F)));
  gate.set_value();
  // The in-flight batch scored on v1 (all ones), not v2 (all tens).
  EXPECT_FLOAT_EQ(in_flight.prediction.get(), 2.0F);

  // A batch formed after the publish sees v2.
  auto after = batcher.submit(matrix.row(0));
  ASSERT_TRUE(after.accepted());
  EXPECT_FLOAT_EQ(after.prediction.get(), 20.0F);
}

// --- Server end-to-end -----------------------------------------------------

TEST(ServerTest, RejectsBeforeFirstPublish) {
  Server server;
  const auto matrix = two_row_matrix();
  const auto result = server.submit(matrix.row(0));
  EXPECT_EQ(result.status, Admission::kNoModel);
  EXPECT_EQ(server.stats().rejected, 1u);
}

TEST(ServerTest, ServesPredictionsMatchingDirectScoring) {
  data::WebspamLikeConfig config;
  config.num_examples = 200;
  config.num_features = 64;
  const auto dataset = data::make_webspam_like(config);
  std::vector<float> beta(64);
  for (std::size_t m = 0; m < beta.size(); ++m) {
    beta[m] = 0.1F * static_cast<float>(m % 7) - 0.2F;
  }

  ServerConfig server_config;
  server_config.threads = 2;
  server_config.batcher.max_batch_size = 16;
  Server server(server_config);
  EXPECT_EQ(server.publish(primal_model(beta)), 1u);

  const auto& matrix = dataset.by_row();
  std::vector<std::future<float>> predictions;
  for (Index r = 0; r < matrix.rows(); ++r) {
    auto result = server.submit(matrix.row(r));
    ASSERT_TRUE(result.accepted()) << admission_name(result.status);
    predictions.push_back(std::move(result.prediction));
  }
  server.drain();

  for (Index r = 0; r < matrix.rows(); ++r) {
    EXPECT_FLOAT_EQ(predictions[r].get(),
                    static_cast<float>(score_row(matrix.row(r), beta)));
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 200u);
  EXPECT_EQ(stats.completed, 200u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.p50_us, 0.0);
}

TEST(ServerTest, HotReloadMidStreamSwapsPredictionsWithoutDrops) {
  const auto matrix = two_row_matrix();
  ServerConfig config;
  config.threads = 2;
  config.batcher.max_batch_size = 8;
  Server server(config);
  server.publish(primal_model(std::vector<float>(8, 0.0F)));  // v1: ŷ = 0

  const std::size_t half = 500;
  std::vector<std::future<float>> first_half;
  std::vector<std::future<float>> second_half;
  for (std::size_t i = 0; i < half; ++i) {
    auto result = server.submit(matrix.row(0));
    ASSERT_TRUE(result.accepted());
    first_half.push_back(std::move(result.prediction));
  }
  server.drain();  // every v1 request completes before the swap
  server.publish(primal_model(std::vector<float>(8, 1.0F)));  // v2: ŷ = 2
  for (std::size_t i = 0; i < half; ++i) {
    auto result = server.submit(matrix.row(0));
    ASSERT_TRUE(result.accepted());
    second_half.push_back(std::move(result.prediction));
  }
  server.drain();

  for (auto& prediction : first_half) {
    EXPECT_FLOAT_EQ(prediction.get(), 0.0F);
  }
  for (auto& prediction : second_half) {
    EXPECT_FLOAT_EQ(prediction.get(), 2.0F);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 2 * half);
  EXPECT_EQ(stats.completed, 2 * half);  // nothing dropped across the reload
  EXPECT_EQ(stats.reloads, 2u);
}

}  // namespace
}  // namespace tpa::serve
