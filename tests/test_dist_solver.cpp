// The distributed engine: consistency invariants, equivalence with the
// non-distributed solver at K=1, convergence across worker counts and
// aggregation modes, and the timing breakdown.
#include <gtest/gtest.h>

#include <tuple>

#include "cluster/dist_solver.hpp"
#include "core/seq_scd.hpp"
#include "data/generators.hpp"
#include "linalg/vector_ops.hpp"

namespace tpa::cluster {
namespace {

using core::Formulation;

const data::Dataset& corpus() {
  static const data::Dataset dataset = [] {
    data::WebspamLikeConfig config;
    config.num_examples = 512;
    config.num_features = 1024;
    return data::make_webspam_like(config);
  }();
  return dataset;
}

DistConfig base_config(Formulation f, int workers) {
  DistConfig config;
  config.formulation = f;
  config.num_workers = workers;
  config.local_solver.kind = core::SolverKind::kSequential;
  config.lambda = 1e-3;
  return config;
}

TEST(DistributedSolver, RejectsNonPositiveWorkers) {
  EXPECT_THROW(
      DistributedSolver(corpus(), base_config(Formulation::kDual, 0)),
      std::invalid_argument);
}

TEST(DistributedSolver, RejectsMoreWorkersThanCoordinates) {
  // Dual partitions examples (512 here), primal partitions features (1024):
  // a worker count above the partitionable dimension would leave workers
  // with no coordinates and must fail fast with a diagnostic.
  try {
    DistributedSolver(corpus(), base_config(Formulation::kDual, 513));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("examples"), std::string::npos);
  }
  // 513 workers over 1024 features is fine for the primal form...
  EXPECT_NO_THROW(
      DistributedSolver(corpus(), base_config(Formulation::kPrimal, 513)));
  // ...but 1025 is not.
  EXPECT_THROW(
      DistributedSolver(corpus(), base_config(Formulation::kPrimal, 1025)),
      std::invalid_argument);
}

TEST(DistributedSolver, RejectsNonPositiveLocalEpochs) {
  for (const int passes : {0, -3}) {
    auto config = base_config(Formulation::kDual, 2);
    config.local_epochs_per_round = passes;
    EXPECT_THROW(DistributedSolver(corpus(), config), std::invalid_argument)
        << passes;
  }
}

TEST(DistributedSolver, RejectsDegenerateFaultTuning) {
  // A grace multiplier <= 1 would declare every healthy worker a straggler.
  auto config = base_config(Formulation::kDual, 2);
  config.straggler_grace = 1.0;
  EXPECT_THROW(DistributedSolver(corpus(), config), std::invalid_argument);
  config.straggler_grace = 1.5;
  config.max_restarts = -1;
  EXPECT_THROW(DistributedSolver(corpus(), config), std::invalid_argument);
}

TEST(DistributedSolver, SingleWorkerMatchesSequentialConvergence) {
  for (const auto f : {Formulation::kPrimal, Formulation::kDual}) {
    DistributedSolver dist(corpus(), base_config(f, 1));
    const core::RidgeProblem problem(corpus(), 1e-3);
    core::SeqScdSolver seq(problem, f, 12345);
    for (int epoch = 0; epoch < 8; ++epoch) {
      dist.run_epoch();
      seq.run_epoch();
    }
    // Different permutations, same algorithm: gaps agree within an order
    // of magnitude along the whole trajectory end point.
    const double dist_gap = dist.duality_gap();
    const double seq_gap = seq.duality_gap(problem);
    EXPECT_LT(dist_gap, seq_gap * 10 + 1e-12) << formulation_name(f);
    EXPECT_GT(dist_gap * 10, seq_gap) << formulation_name(f);
  }
}

class DistInvariantSweep
    : public ::testing::TestWithParam<
          std::tuple<Formulation, int, AggregationMode>> {};

TEST_P(DistInvariantSweep, GlobalSharedEqualsMatrixTimesWeights) {
  const auto [f, workers, mode] = GetParam();
  auto config = base_config(f, workers);
  config.aggregation = mode;
  DistributedSolver solver(corpus(), config);
  for (int epoch = 0; epoch < 4; ++epoch) solver.run_epoch();

  // The defining invariant of Algorithms 3/4: after aggregation the
  // master's shared vector equals A x (assembled weights) exactly (up to
  // float rounding) — workers rescale local weights by the same gamma.
  const auto weights = solver.global_weights();
  const auto& by_row = corpus().by_row();
  const auto expected =
      f == Formulation::kPrimal
          ? linalg::csr_matvec(by_row, weights)
          : linalg::csr_matvec_transposed(by_row, weights);
  EXPECT_LT(linalg::max_abs_diff(solver.global_shared(), expected), 2e-3);
}

TEST_P(DistInvariantSweep, GapDecreasesOverEpochs) {
  const auto [f, workers, mode] = GetParam();
  auto config = base_config(f, workers);
  config.aggregation = mode;
  DistributedSolver solver(corpus(), config);
  solver.run_epoch();
  const double early = solver.duality_gap();
  for (int epoch = 0; epoch < 10; ++epoch) solver.run_epoch();
  EXPECT_LT(solver.duality_gap(), early);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistInvariantSweep,
    ::testing::Combine(::testing::Values(Formulation::kPrimal,
                                         Formulation::kDual),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(AggregationMode::kAveraging,
                                         AggregationMode::kAdaptive)),
    [](const auto& info) {
      return std::string(formulation_name(std::get<0>(info.param))) + "_K" +
             std::to_string(std::get<1>(info.param)) + "_" +
             aggregation_name(std::get<2>(info.param));
    });

// --- Compressed delta exchange ----------------------------------------------

TEST(DistributedSolver, CompressedDeltasTrackDenseAndHalveWireBytes) {
  for (const auto f : {Formulation::kPrimal, Formulation::kDual}) {
    auto dense_config = base_config(f, 4);
    auto compressed_config = dense_config;
    compressed_config.compress_deltas = true;
    DistributedSolver dense(corpus(), dense_config);
    DistributedSolver compressed(corpus(), compressed_config);
    for (int epoch = 0; epoch < 8; ++epoch) {
      dense.run_epoch();
      compressed.run_epoch();
    }
    // fp16-quantized deltas perturb each aggregation by at most the block
    // scale · 2^-11, so the trajectories stay within a small factor.
    EXPECT_LT(compressed.duality_gap(), dense.duality_gap() * 4 + 1e-12)
        << formulation_name(f);
    EXPECT_GT(compressed.duality_gap() * 4, dense.duality_gap())
        << formulation_name(f);
    // The uncompressed exchange charges the raw fp64 image; the codec must
    // deliver at least the 2x reduction the precision ablation gates on.
    EXPECT_EQ(dense.delta_bytes_on_wire(), dense.delta_bytes_dense());
    EXPECT_GT(compressed.delta_bytes_on_wire(), 0u);
    EXPECT_GE(compressed.delta_bytes_dense(),
              2 * compressed.delta_bytes_on_wire());
  }
}

TEST(DistributedSolver, LocalEpochsPerRoundMultiplyWork) {
  auto config = base_config(Formulation::kDual, 2);
  config.local_epochs_per_round = 3;
  DistributedSolver solver(corpus(), config);
  const auto report = solver.run_epoch();
  // One communication round performs H local passes over every coordinate.
  EXPECT_EQ(report.coordinate_updates, corpus().num_examples());
  auto single = base_config(Formulation::kDual, 2);
  DistributedSolver baseline(corpus(), single);
  const auto base_report = baseline.run_epoch();
  EXPECT_NEAR(report.sim_seconds / base_report.sim_seconds, 3.0, 1.0)
      << "local compute should roughly triple per round";
  // And the round still leaves the global invariant intact.
  const auto weights = solver.global_weights();
  const auto expected =
      linalg::csr_matvec_transposed(corpus().by_row(), weights);
  EXPECT_LT(linalg::max_abs_diff(solver.global_shared(), expected), 2e-3);
}

TEST(DistributedSolver, FixedGammaIsHonoured) {
  auto config = base_config(Formulation::kDual, 4);
  config.aggregation = AggregationMode::kFixed;
  config.fixed_gamma = 0.125;
  DistributedSolver solver(corpus(), config);
  solver.run_epoch();
  EXPECT_DOUBLE_EQ(solver.last_gamma(), 0.125);
}

TEST(DistributedSolver, AveragingUsesOneOverK) {
  auto config = base_config(Formulation::kDual, 4);
  DistributedSolver solver(corpus(), config);
  solver.run_epoch();
  EXPECT_DOUBLE_EQ(solver.last_gamma(), 0.25);
}

TEST(DistributedSolver, AdaptiveGammaExceedsAveragingLate) {
  auto config = base_config(Formulation::kDual, 8);
  config.aggregation = AggregationMode::kAdaptive;
  DistributedSolver solver(corpus(), config);
  double late_gamma = 0.0;
  for (int epoch = 0; epoch < 12; ++epoch) {
    solver.run_epoch();
    late_gamma = solver.last_gamma();
  }
  EXPECT_GT(late_gamma, 1.0 / 8.0);  // paper Fig. 5's headline observation
}

TEST(DistributedSolver, AdaptiveBeatsAveragingInObjectivePerEpoch) {
  // Run both modes in lockstep; adaptive's exact line search can only
  // improve the objective over the fixed 1/K step for the same local work.
  const core::RidgeProblem problem(corpus(), 1e-3);
  auto avg_config = base_config(Formulation::kPrimal, 8);
  auto ada_config = avg_config;
  ada_config.aggregation = AggregationMode::kAdaptive;
  DistributedSolver averaging(corpus(), avg_config);
  DistributedSolver adaptive(corpus(), ada_config);
  for (int epoch = 0; epoch < 10; ++epoch) {
    averaging.run_epoch();
    adaptive.run_epoch();
  }
  EXPECT_LT(adaptive.duality_gap(), averaging.duality_gap() * 1.5);
}

TEST(DistributedSolver, BreakdownAccountsComponents) {
  auto config = base_config(Formulation::kDual, 4);
  config.local_solver.kind = core::SolverKind::kTpaM4000;
  DistributedSolver solver(corpus(), config);
  solver.run_epoch();
  const auto& breakdown = solver.last_attribution();
  EXPECT_GT(breakdown.compute_seconds + breakdown.straggler_wait_seconds,
            0.0);
  EXPECT_GT(breakdown.host_seconds, 0.0);
  EXPECT_GT(breakdown.pcie_seconds, 0.0);  // GPU local solver moves the vector
  EXPECT_GT(breakdown.network_seconds, 0.0);  // K > 1 communicates
  EXPECT_NEAR(breakdown.total(),
              breakdown.compute_seconds + breakdown.straggler_wait_seconds +
                  breakdown.host_seconds + breakdown.pcie_seconds +
                  breakdown.network_seconds,
              1e-15);
}

TEST(DistributedSolver, NoNetworkOrPcieForLoneCpuWorker) {
  auto config = base_config(Formulation::kDual, 1);
  DistributedSolver solver(corpus(), config);
  solver.run_epoch();
  EXPECT_EQ(solver.last_attribution().network_seconds, 0.0);
  EXPECT_EQ(solver.last_attribution().pcie_seconds, 0.0);
}

TEST(DistributedSolver, GpuWorkersChargeSetupUpload) {
  auto cpu_config = base_config(Formulation::kDual, 2);
  DistributedSolver cpu(corpus(), cpu_config);
  EXPECT_EQ(cpu.setup_sim_seconds(), 0.0);
  auto gpu_config = cpu_config;
  gpu_config.local_solver.kind = core::SolverKind::kTpaTitanX;
  DistributedSolver gpu(corpus(), gpu_config);
  EXPECT_GT(gpu.setup_sim_seconds(), 0.0);
}

TEST(DistributedSolver, MoreWorkersMeansFasterEpochs) {
  // Per-epoch compute shrinks ~1/K (each worker holds 1/K of the data).
  auto config1 = base_config(Formulation::kDual, 1);
  auto config8 = base_config(Formulation::kDual, 8);
  DistributedSolver one(corpus(), config1);
  DistributedSolver eight(corpus(), config8);
  const double t1 = one.run_epoch().sim_seconds;
  const double t8 = eight.run_epoch().sim_seconds;
  EXPECT_LT(t8, t1 / 2.0);
}

TEST(RunDistributed, RecordsGammaAndStopsOnTarget) {
  auto config = base_config(Formulation::kDual, 2);
  config.aggregation = AggregationMode::kAdaptive;
  DistributedSolver solver(corpus(), config);
  core::RunOptions options;
  options.max_epochs = 100;
  options.target_gap = 1e-4;
  const auto trace = run_distributed(solver, options);
  EXPECT_LE(trace.final_gap(), 1e-4);
  EXPECT_LT(trace.points().back().epoch, 100);
  for (const auto& point : trace.points()) {
    EXPECT_NE(point.gamma, 0.0);
  }
}

}  // namespace
}  // namespace tpa::cluster
