// The run-loop contract every driver shares through core::run_loop: the
// gap_every stride with the last epoch always evaluated, the target-gap
// stop, one train/epoch span and train.epochs count per epoch and one
// train/gap_eval span and train.gap_evals count per gap, and points
// numbered from the resume epoch + 1.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "cluster/async_solver.hpp"
#include "cluster/dist_solver.hpp"
#include "core/convergence.hpp"
#include "core/seq_scd.hpp"
#include "core/solver_factory.hpp"
#include "data/generators.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "store/streaming_dataset.hpp"
#include "store/streaming_solver.hpp"

namespace tpa {
namespace {

using core::ConvergenceTrace;
using core::Formulation;
using core::RunOptions;

constexpr double kLambda = 1e-3;

const data::Dataset& corpus() {
  static const data::Dataset dataset = [] {
    data::WebspamLikeConfig config;
    config.num_examples = 256;
    config.num_features = 512;
    config.seed = 99;
    return data::make_webspam_like(config);
  }();
  return dataset;
}

const sparse::LabeledMatrix& corpus_rows() {
  static const sparse::LabeledMatrix rows{
      corpus().by_row(),
      std::vector<float>(corpus().labels().begin(), corpus().labels().end())};
  return rows;
}

store::StreamingConfig streaming_config() {
  store::StreamingConfig config;
  config.lambda = kLambda;
  config.seed = 7;
  return config;
}

template <typename ConfigT>
ConfigT cluster_config() {
  ConfigT config;
  config.formulation = Formulation::kDual;
  config.num_workers = 2;
  config.local_solver.kind = core::SolverKind::kSequential;
  config.lambda = kLambda;
  return config;
}

/// One driver behind its public run call.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual ConvergenceTrace run(const RunOptions& options) = 0;
  /// The duality gap of the driver's current state.
  virtual double gap() = 0;
  /// The track its train/* spans land on (kCurrentThread: the caller's).
  virtual std::int32_t track() const { return obs::kCurrentThread; }
};

class Sequential final : public Driver {
 public:
  ConvergenceTrace run(const RunOptions& options) override {
    return core::run_solver(solver_, problem_, options);
  }
  double gap() override { return solver_.duality_gap(problem_); }

 private:
  core::RidgeProblem problem_{corpus(), kLambda};
  core::SeqScdSolver solver_{problem_, Formulation::kDual, 7};
};

class Streamed final : public Driver {
 public:
  ConvergenceTrace run(const RunOptions& options) override {
    return store::run_streaming(solver_, options);
  }
  double gap() override { return solver_.duality_gap(); }

 private:
  store::MemoryShardedDataset source_{"ds", corpus_rows(), 4};
  store::StreamingScdSolver solver_{source_, streaming_config()};
};

template <typename SolverT, typename ConfigT,
          ConvergenceTrace (*RunFn)(SolverT&, const RunOptions&,
                                    const cluster::CheckpointConfig&),
          std::int32_t kTrack>
class Cluster final : public Driver {
 public:
  ConvergenceTrace run(const RunOptions& options) override {
    return RunFn(solver_, options, {});
  }
  double gap() override { return solver_.duality_gap(); }
  std::int32_t track() const override { return kTrack; }

 private:
  SolverT solver_{corpus(), cluster_config<ConfigT>()};
};

struct Arm {
  const char* name;
  std::function<std::unique_ptr<Driver>()> make;
};

void PrintTo(const Arm& arm, std::ostream* os) { *os << arm.name; }

const Arm kArms[] = {
    {"sequential", [] { return std::make_unique<Sequential>(); }},
    {"streamed", [] { return std::make_unique<Streamed>(); }},
    {"distributed",
     [] {
       return std::make_unique<
           Cluster<cluster::DistributedSolver, cluster::DistConfig,
                   &cluster::run_distributed, cluster::kMasterTrack>>();
     }},
    {"async",
     [] {
       return std::make_unique<
           Cluster<cluster::AsyncSolver, cluster::AsyncConfig,
                   &cluster::run_async, cluster::kAsyncMasterTrack>>();
     }},
};

RunOptions five_epochs(int gap_every) {
  RunOptions options;
  options.max_epochs = 5;
  options.target_gap = 0.0;
  options.gap_every = gap_every;
  return options;
}

std::vector<int> epochs_of(const ConvergenceTrace& trace) {
  std::vector<int> epochs;
  for (const auto& point : trace.points()) epochs.push_back(point.epoch);
  return epochs;
}

class RunLoopContract : public ::testing::TestWithParam<Arm> {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(false);
    obs::reset_trace();
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::reset_trace();
  }
};

TEST_P(RunLoopContract, StrideRecordsEveryNthAndTheLastEpoch) {
  const auto driver = GetParam().make();
  const auto trace = driver->run(five_epochs(2));
  EXPECT_EQ(epochs_of(trace), (std::vector<int>{2, 4, 5}));
  EXPECT_EQ(trace.final_gap(), driver->gap());
}

TEST_P(RunLoopContract, SpansAndCountersCoverEveryEpochAndGap) {
  const auto driver = GetParam().make();
  auto& epochs = obs::metrics().counter("train.epochs");
  auto& gaps = obs::metrics().counter("train.gap_evals");
  const auto epochs_before = epochs.value();
  const auto gaps_before = gaps.value();

  obs::set_trace_enabled(true);
  driver->run(five_epochs(2));
  obs::set_trace_enabled(false);

  EXPECT_EQ(epochs.value() - epochs_before, 5u);
  EXPECT_EQ(gaps.value() - gaps_before, 3u);
  int epoch_spans = 0;
  int gap_spans = 0;
  std::set<std::int32_t> tracks;
  for (const auto& record : obs::trace_records()) {
    if (record.name == "train/epoch") {
      ++epoch_spans;
    } else if (record.name == "train/gap_eval") {
      ++gap_spans;
    } else {
      continue;
    }
    tracks.insert(record.track);
  }
  EXPECT_EQ(epoch_spans, 5);
  EXPECT_EQ(gap_spans, 3);
  ASSERT_EQ(tracks.size(), 1u);
  if (driver->track() != obs::kCurrentThread) {
    EXPECT_EQ(*tracks.begin(), driver->track());
  }
}

TEST_P(RunLoopContract, TargetGapStopsAtTheFirstGapBelowIt) {
  auto options = five_epochs(1);
  options.target_gap = 1e6;
  const auto trace = GetParam().make()->run(options);
  EXPECT_EQ(epochs_of(trace), (std::vector<int>{1}));
}

INSTANTIATE_TEST_SUITE_P(Drivers, RunLoopContract, ::testing::ValuesIn(kArms),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// A non-finite gap ends the run at its epoch: the point is recorded, the
// trace reads diverged and train.diverged counts it.
TEST(RunLoopDivergence, StopsAtTheFirstNonFiniteGap) {
  auto& diverged = obs::metrics().counter("train.diverged");
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const auto before = diverged.value();
    int epochs_run = 0;
    const auto trace = core::run_loop(
        five_epochs(1), {},
        [&](int, ConvergenceTrace&) {
          ++epochs_run;
          return core::EpochReport{};
        },
        [&](util::ThreadPool*) { return epochs_run == 3 ? bad : 1.0; });
    EXPECT_EQ(epochs_run, 3);
    EXPECT_EQ(epochs_of(trace), (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(trace.diverged());
    EXPECT_EQ(diverged.value() - before, 1u);
  }
}

TEST(RunLoopDivergence, FiniteRunsAreNotDiverged) {
  const auto trace = Sequential().run(five_epochs(1));
  EXPECT_EQ(trace.points().size(), 5u);
  EXPECT_FALSE(trace.diverged());
  EXPECT_FALSE(ConvergenceTrace().diverged());
}

// TPA-SCD on the Titan X (48-block window) runs past its bounded-delay
// limit at lambda 1e-5 on 2048 x 4096: the gap goes NaN within 5 epochs and
// the run stops there.
TEST(RunLoopDivergence, TitanXTpaScdStopsWhereItDiverges) {
  data::WebspamLikeConfig data_config;
  data_config.num_examples = 2048;
  data_config.num_features = 4096;
  data_config.seed = 1;
  const auto dataset = data::make_webspam_like(data_config);
  const core::RidgeProblem problem(dataset, 1e-5);
  core::SolverConfig config;
  config.kind = core::SolverKind::kTpaTitanX;
  config.formulation = Formulation::kDual;
  config.seed = 1;
  const auto solver = core::make_solver(problem, config);
  const auto trace = core::run_solver(*solver, problem, five_epochs(1));
  ASSERT_TRUE(trace.diverged());
  EXPECT_LT(trace.points().back().epoch, 5);
}

TEST(RunLoopResume, StreamedPointsStartAfterTheResumeEpoch) {
  store::MemoryShardedDataset source("ds", corpus_rows(), 4);
  store::StreamingScdSolver interrupted(source, streaming_config());
  interrupted.run_epoch();
  interrupted.run_epoch();
  interrupted.run_shards(1);  // stopped one shard into epoch 3
  const auto saved = store::make_checkpoint(interrupted);

  store::StreamingScdSolver resumed(source, streaming_config());
  resumed.resume(static_cast<int>(saved.epoch), saved.shards_done,
                 saved.alpha, saved.shared);
  const auto trace = store::run_streaming(resumed, five_epochs(1));
  EXPECT_EQ(epochs_of(trace), (std::vector<int>{3, 4, 5}));
}

TEST(RunLoopResume, RestoredDistributedPointsStartAfterTheResumeEpoch) {
  const auto config = cluster_config<cluster::DistConfig>();
  cluster::DistributedSolver interrupted(corpus(), config);
  interrupted.run_epoch();
  interrupted.run_epoch();

  cluster::DistributedSolver resumed(corpus(), config);
  const auto saved = interrupted.checkpoint();
  resumed.restore(saved, interrupted.checkpoint_state());
  const auto trace = cluster::run_distributed(resumed, five_epochs(1));
  EXPECT_EQ(epochs_of(trace), (std::vector<int>{3, 4, 5}));
}

}  // namespace
}  // namespace tpa
