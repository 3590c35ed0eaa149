// Out-of-core streaming solver: bit-exactness against the in-memory
// solvers, prefetch invariance, streamed gap identity, and mid-shard
// checkpoint/resume.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/ridge_problem.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "store/checkpoint.hpp"
#include "store/format.hpp"
#include "store/prefetch.hpp"
#include "store/shard_reader.hpp"
#include "store/streaming_dataset.hpp"
#include "store/streaming_solver.hpp"
#include "util/thread_pool.hpp"

namespace tpa::store {
namespace {

sparse::LabeledMatrix make_data(sparse::Index examples = 384) {
  data::WebspamLikeConfig config;
  config.num_examples = examples;
  config.num_features = 2 * examples;
  config.seed = 99;
  const auto dataset = data::make_webspam_like(config);
  return sparse::LabeledMatrix{
      dataset.by_row(),
      std::vector<float>(dataset.labels().begin(), dataset.labels().end())};
}

StreamingConfig base_config() {
  StreamingConfig config;
  config.lambda = 1e-3;
  config.seed = 7;
  return config;
}

std::vector<float> to_vec(std::span<const float> s) {
  return std::vector<float>(s.begin(), s.end());
}

class StreamingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("tpa_streaming_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(StreamingTest, RejectsNonFiniteLambda) {
  const auto data = make_data(64);
  const MemoryShardedDataset source("lambda", data, 2);
  for (const double lambda : {0.0, std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    StreamingConfig config = base_config();
    config.lambda = lambda;
    EXPECT_THROW(StreamingScdSolver(source, config), std::invalid_argument)
        << lambda;
  }
}

TEST_F(StreamingTest, RejectsNegativeMergeEvery) {
  const auto data = make_data(64);
  const MemoryShardedDataset source("merge", data, 2);
  StreamingConfig config = base_config();
  config.threads = 2;
  config.merge_every = -1;
  try {
    StreamingScdSolver solver(source, config);
    ADD_FAILURE() << "a negative merge_every was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("merge_every"), std::string::npos)
        << e.what();
  }
}

TEST_F(StreamingTest, StoreRunIsBitExactWithInMemoryShards) {
  const auto data = make_data();
  write_store(dir_.string(), "ds", data, 5);
  StoreStreamingDataset disk(ShardReader::open(
      (dir_ / "ds.manifest").string()));
  MemoryShardedDataset memory("ds", data, 5);
  ASSERT_EQ(disk.num_shards(), memory.num_shards());

  StreamingScdSolver a(disk, base_config());
  StreamingScdSolver b(memory, base_config());
  for (int epoch = 0; epoch < 4; ++epoch) {
    a.run_epoch();
    b.run_epoch();
    // Bit-exact, not approximately equal: identical sweep code consumed
    // identical bytes in an identical order.
    EXPECT_EQ(to_vec(a.alpha()), to_vec(b.alpha()));
    EXPECT_EQ(to_vec(a.shared()), to_vec(b.shared()));
    EXPECT_EQ(a.duality_gap(), b.duality_gap());
  }
}

TEST_F(StreamingTest, PrefetchModeAndWindowNeverChangeTheTrajectory) {
  const auto data = make_data(256);
  MemoryShardedDataset source("ds", data, 4);

  auto run = [&](bool async, std::size_t resident) {
    auto config = base_config();
    config.async_prefetch = async;
    config.resident_shards = resident;
    StreamingScdSolver solver(source, config);
    for (int epoch = 0; epoch < 3; ++epoch) solver.run_epoch();
    return to_vec(solver.alpha());
  };
  const auto reference = run(true, 2);
  EXPECT_EQ(run(false, 2), reference);  // sync == async
  EXPECT_EQ(run(true, 1), reference);   // single buffer
  EXPECT_EQ(run(true, 4), reference);   // whole pass resident
}

TEST_F(StreamingTest, StreamedGapEqualsSerialInMemoryEvaluation) {
  const auto data = make_data(256);
  MemoryShardedDataset source("ds", data, 3);
  StreamingScdSolver solver(source, base_config());
  solver.run_epoch();
  solver.run_epoch();

  sparse::LabeledMatrix copy = data;
  const data::Dataset dataset("ds", std::move(copy.matrix),
                              std::move(copy.labels));
  const core::RidgeProblem problem(dataset, base_config().lambda);
  // EXPECT_EQ on doubles: the streamed pass reproduces the serial
  // accumulation order exactly, so the values are identical bits.
  EXPECT_EQ(solver.duality_gap(),
            problem.dual_duality_gap(solver.alpha(), solver.shared()));
}

// Above one 8192-row chunk, with shard boundaries inside the chunks: the
// streamed pass accumulates into the in-memory gap's chunks, so it equals
// the in-memory gap, serial or on a pool.
TEST_F(StreamingTest, StreamedGapEqualsInMemoryAcrossChunks) {
  const auto data = make_data(20000);
  MemoryShardedDataset source("ds", data, 5);
  ASSERT_GE(source.num_shards(), 3u);
  StreamingScdSolver solver(source, base_config());
  solver.run_epoch();

  sparse::LabeledMatrix copy = data;
  const data::Dataset dataset("ds", std::move(copy.matrix),
                              std::move(copy.labels));
  const core::RidgeProblem problem(dataset, base_config().lambda);
  const double streamed = solver.duality_gap();
  EXPECT_EQ(streamed,
            problem.dual_duality_gap(solver.alpha(), solver.shared()));

  const core::PoolDispatchModel saved = core::pool_dispatch();
  core::PoolDispatchModel always;
  always.hardware_threads = 8;
  always.dispatch_seconds = 0.0;
  always.per_chunk_seconds = 0.0;
  core::set_pool_dispatch(always);
  util::ThreadPool pool(4);
  const double pooled =
      problem.dual_duality_gap(solver.alpha(), solver.shared(), &pool);
  core::set_pool_dispatch(saved);
  EXPECT_EQ(streamed, pooled);
}

TEST_F(StreamingTest, ThreadedSweepsAreDeterministicAndSourceInvariant) {
  const auto data = make_data(256);
  write_store(dir_.string(), "ds", data, 4);
  StoreStreamingDataset disk(
      ShardReader::open((dir_ / "ds.manifest").string()));
  MemoryShardedDataset memory("ds", data, 4);

  auto config = base_config();
  config.threads = 3;
  auto run = [&](const StreamingDataset& source) {
    StreamingScdSolver solver(source, config);
    for (int epoch = 0; epoch < 3; ++epoch) solver.run_epoch();
    return to_vec(solver.alpha());
  };
  const auto first = run(disk);
  EXPECT_EQ(run(disk), first);    // re-run: deterministic
  EXPECT_EQ(run(memory), first);  // byte source is irrelevant
}

TEST_F(StreamingTest, MidShardResumeReproducesTheUninterruptedRun) {
  const auto data = make_data(320);
  write_store(dir_.string(), "ds", data, 5);
  StoreStreamingDataset source(
      ShardReader::open((dir_ / "ds.manifest").string()));

  // Uninterrupted: 4 full epochs.
  StreamingScdSolver full(source, base_config());
  for (int epoch = 0; epoch < 4; ++epoch) full.run_epoch();

  // Interrupted after 2 epochs + 3 shards, state round-tripped through the
  // checkpoint file format, resumed in a fresh solver.
  StreamingScdSolver half(source, base_config());
  half.run_epoch();
  half.run_epoch();
  EXPECT_EQ(half.run_shards(3), 3u);
  EXPECT_TRUE(half.mid_epoch());
  EXPECT_EQ(half.shards_done(), 3u);
  const auto ckpt_path = (dir_ / "run.tpsc").string();
  write_checkpoint_file(ckpt_path, make_checkpoint(half));

  const auto restored = read_checkpoint_file(ckpt_path);
  EXPECT_EQ(restored.epoch, 2u);
  EXPECT_EQ(restored.shards_done, 3u);
  EXPECT_EQ(restored.rows, source.rows());
  StreamingScdSolver resumed(source, base_config());
  resumed.resume(static_cast<int>(restored.epoch), restored.shards_done,
                 restored.alpha, restored.shared);
  resumed.run_epoch();  // finishes epoch 3
  EXPECT_EQ(resumed.epochs_completed(), 3);
  resumed.run_epoch();
  EXPECT_EQ(to_vec(resumed.alpha()), to_vec(full.alpha()));
  EXPECT_EQ(to_vec(resumed.shared()), to_vec(full.shared()));
  EXPECT_EQ(resumed.duality_gap(), full.duality_gap());
}

TEST_F(StreamingTest, CheckpointFileRejectsCorruption) {
  StreamingCheckpoint checkpoint;
  checkpoint.epoch = 3;
  checkpoint.seed = 7;
  checkpoint.threads = 1;
  checkpoint.rows = 4;
  checkpoint.cols = 2;
  checkpoint.shards = 2;
  checkpoint.lambda = 1e-3;
  checkpoint.alpha = {1.0F, 2.0F, 3.0F, 4.0F};
  checkpoint.shared = {5.0F, 6.0F};
  const auto path = (dir_ / "ckpt.tpsc").string();
  write_checkpoint_file(path, checkpoint);
  EXPECT_EQ(read_checkpoint_file(path).alpha, checkpoint.alpha);

  auto bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  bytes[bytes.size() / 2] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(read_checkpoint_file(path), std::runtime_error);
}

TEST_F(StreamingTest, CheckpointFileRejectsHostileLength) {
  StreamingCheckpoint checkpoint;
  checkpoint.rows = 2;
  checkpoint.cols = 1;
  checkpoint.alpha = {1.0F, 2.0F};
  checkpoint.shared = {3.0F};
  const auto path = (dir_ / "hostile.tpsc").string();
  write_checkpoint_file(path, checkpoint);
  {
    // Header rows field: magic, then epoch/shards_done/seed/threads.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint64_t rows = std::uint64_t{1} << 40;
    file.seekp(4 + 4 * sizeof(std::uint64_t));
    file.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  }
  EXPECT_THROW(read_checkpoint_file(path), std::runtime_error);
}

TEST_F(StreamingTest, GapThrowsMidEpochAndResumeRejectsUsedSolver) {
  const auto data = make_data(256);
  MemoryShardedDataset source("ds", data, 4);
  StreamingScdSolver solver(source, base_config());
  solver.run_shards(2);
  EXPECT_THROW(solver.duality_gap(), std::logic_error);
  EXPECT_THROW(solver.resume(0, 0, to_vec(solver.alpha()),
                             to_vec(solver.shared())),
               std::logic_error);
}

TEST_F(StreamingTest, PrefetchStatsAccountForEveryLoad) {
  const auto data = make_data(256);
  MemoryShardedDataset source("ds", data, 4);

  auto sync = base_config();
  sync.async_prefetch = false;
  StreamingScdSolver control(source, sync);
  control.run_epoch();
  const auto& control_stats = control.prefetch_stats();
  EXPECT_EQ(control_stats.loads, source.num_shards());
  // Synchronous loading cannot overlap: every load is a stall.
  EXPECT_EQ(control_stats.stalls, control_stats.loads);
  EXPECT_EQ(control_stats.overlap_fraction(), 0.0);

  StreamingScdSolver async_solver(source, base_config());
  async_solver.run_epoch();
  const auto& stats = async_solver.prefetch_stats();
  EXPECT_EQ(stats.loads, source.num_shards());
  EXPECT_LE(stats.stalls, stats.loads);
  EXPECT_GE(stats.overlap_fraction(), 0.0);
  EXPECT_LE(stats.overlap_fraction(), 1.0);
}

TEST_F(StreamingTest, RunStreamingShardCheckpointsResumeAcrossProcesses) {
  const auto data = make_data(256);
  write_store(dir_.string(), "ds", data, 4);
  StoreStreamingDataset source(
      ShardReader::open((dir_ / "ds.manifest").string()));

  core::RunOptions options;
  options.max_epochs = 4;
  options.target_gap = 0.0;
  StreamingScdSolver full(source, base_config());
  const auto full_trace = run_streaming(full, options);

  // First process: 2 epochs with shard-granular checkpoints.
  const auto ckpt_path = (dir_ / "run.tpsc").string();
  CheckpointOptions checkpointing;
  checkpointing.path = ckpt_path;
  checkpointing.every_shards = 3;
  StreamingScdSolver first(source, base_config());
  core::RunOptions half = options;
  half.max_epochs = 2;
  run_streaming(first, half, checkpointing);

  // Second process: restore and continue to epoch 4.
  const auto restored = read_checkpoint_file(ckpt_path);
  StreamingScdSolver second(source, base_config());
  second.resume(static_cast<int>(restored.epoch), restored.shards_done,
                restored.alpha, restored.shared);
  run_streaming(second, options);
  EXPECT_EQ(to_vec(second.alpha()), to_vec(full.alpha()));
  EXPECT_EQ(to_vec(second.shared()), to_vec(full.shared()));
  EXPECT_EQ(full_trace.final_gap(), second.duality_gap());
}

TEST_F(StreamingTest, PipelineSurfacesLoadErrorsOnTheSolverThread) {
  const auto data = make_data(128);
  write_store(dir_.string(), "ds", data, 4);
  // Corrupt shard 2 after the manifest was written.
  const auto shard_path = dir_ / "ds.shard00002.tpa1";
  std::filesystem::resize_file(
      shard_path, std::filesystem::file_size(shard_path) - 4);
  StoreStreamingDataset source(
      ShardReader::open((dir_ / "ds.manifest").string()));

  PrefetchPipeline pipeline(source, 2, /*async=*/true);
  pipeline.begin_pass({0, 1, 2, 3});
  EXPECT_NO_THROW(pipeline.acquire(0));
  EXPECT_NO_THROW(pipeline.acquire(1));
  EXPECT_THROW(pipeline.acquire(2), std::runtime_error);
  pipeline.end_pass();
}

}  // namespace
}  // namespace tpa::store
