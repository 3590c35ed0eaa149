// Solver behaviour: sequential SCD, the asynchronous CPU solvers (atomic
// preserves optimality, wild violates it), real-threaded variants, the
// factory, and parameterized convergence sweeps across formulations.
#include <gtest/gtest.h>

#include <cmath>

#include "core/async_scd.hpp"
#include "core/convergence.hpp"
#include "core/seq_scd.hpp"
#include "core/solver_factory.hpp"
#include "core/threaded_scd.hpp"
#include "data/generators.hpp"

namespace tpa::core {
namespace {

const data::Dataset& webspam_small() {
  static const data::Dataset dataset = [] {
    data::WebspamLikeConfig config;
    config.num_examples = 4096;
    config.num_features = 8192;
    return data::make_webspam_like(config);
  }();
  return dataset;
}

TEST(SeqScd, ReportsWorkPerEpoch) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  SeqScdSolver solver(problem, Formulation::kPrimal, 1);
  const auto report = solver.run_epoch();
  EXPECT_EQ(report.coordinate_updates, problem.num_features());
  EXPECT_GT(report.sim_seconds, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(SeqScd, DeterministicAcrossIdenticalRuns) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  SeqScdSolver a(problem, Formulation::kDual, 42);
  SeqScdSolver b(problem, Formulation::kDual, 42);
  for (int epoch = 0; epoch < 3; ++epoch) {
    a.run_epoch();
    b.run_epoch();
  }
  EXPECT_EQ(a.state().weights, b.state().weights);
}

TEST(SeqScd, SeedChangesVisitOrderButNotOptimum) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  SeqScdSolver a(problem, Formulation::kDual, 1);
  SeqScdSolver b(problem, Formulation::kDual, 2);
  a.run_epoch();
  b.run_epoch();
  EXPECT_NE(a.state().weights, b.state().weights);
  for (int epoch = 0; epoch < 30; ++epoch) {
    a.run_epoch();
    b.run_epoch();
  }
  EXPECT_NEAR(a.duality_gap(problem), b.duality_gap(problem), 1e-5);
}

TEST(AScd, MatchesSequentialConvergencePerEpoch) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  SeqScdSolver seq(problem, Formulation::kDual, 7);
  AScdSolver ascd(problem, Formulation::kDual, 16, 7);
  for (int epoch = 0; epoch < 6; ++epoch) {
    seq.run_epoch();
    ascd.run_epoch();
  }
  const double seq_gap = seq.duality_gap(problem);
  const double ascd_gap = ascd.duality_gap(problem);
  // "Exactly the same convergence properties as a function of epochs"
  // (paper Sect. III.D) — same order of magnitude at every stage.
  EXPECT_LT(ascd_gap, seq_gap * 10.0);
  EXPECT_GT(ascd_gap, seq_gap / 10.0);
  EXPECT_EQ(ascd.total_lost_updates(), 0u);
}

TEST(AScd, SimulatedTimeIsFasterThanSequential) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  SeqScdSolver seq(problem, Formulation::kDual, 7);
  AScdSolver ascd(problem, Formulation::kDual, 16, 7);
  const double seq_time = seq.run_epoch().sim_seconds;
  const double ascd_time = ascd.run_epoch().sim_seconds;
  EXPECT_NEAR(seq_time / ascd_time, 2.0, 0.2);  // paper's 2x at 16 threads
}

TEST(PasscodeWild, LosesUpdatesAndViolatesOptimality) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  PasscodeWildSolver wild(problem, Formulation::kDual, 16, 7);
  ConvergenceTrace trace;
  for (int epoch = 0; epoch < 12; ++epoch) wild.run_epoch();
  EXPECT_GT(wild.total_lost_updates(), 0u);
  // The shared vector drifts away from A^T alpha: optimality (eqs. 5/6)
  // cannot hold, so the duality gap floors well above the atomic solvers'.
  EXPECT_GT(wild.state().shared_inconsistency(problem), 1e-4);
  SeqScdSolver seq(problem, Formulation::kDual, 7);
  for (int epoch = 0; epoch < 12; ++epoch) seq.run_epoch();
  EXPECT_GT(wild.duality_gap(problem), 100.0 * seq.duality_gap(problem));
}

TEST(PasscodeWild, IsChargedFasterThanAtomic) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  AScdSolver ascd(problem, Formulation::kDual, 16, 7);
  PasscodeWildSolver wild(problem, Formulation::kDual, 16, 7);
  EXPECT_NEAR(ascd.run_epoch().sim_seconds /
                  wild.run_epoch().sim_seconds,
              2.0, 0.2);  // 4x wild vs 2x atomic
}

TEST(AsyncScd, RejectsNonPositiveThreads) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  EXPECT_THROW(AScdSolver(problem, Formulation::kDual, 0, 1),
               std::invalid_argument);
  // Refused before the engine sizes its commit ring from the count.
  EXPECT_THROW(AScdSolver(problem, Formulation::kDual, -1, 1),
               std::invalid_argument);
}

TEST(ThreadedScd, AtomicVariantConverges) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  ThreadedScdSolver solver(problem, Formulation::kDual, 4,
                           CommitPolicy::kAtomicAdd, 7);
  for (int epoch = 0; epoch < 8; ++epoch) solver.run_epoch();
  EXPECT_LT(solver.duality_gap(problem), 1e-4);
}

TEST(ThreadedScd, SingleThreadMatchesSequentialClosely) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  ThreadedScdSolver threaded(problem, Formulation::kPrimal, 1,
                             CommitPolicy::kAtomicAdd, 7);
  SeqScdSolver seq(problem, Formulation::kPrimal, 7);
  for (int epoch = 0; epoch < 5; ++epoch) {
    threaded.run_epoch();
    seq.run_epoch();
  }
  // Same permutations (same seed), no concurrency: identical trajectories
  // up to atomic-add rounding.
  EXPECT_NEAR(threaded.duality_gap(problem), seq.duality_gap(problem),
              1e-6);
}

TEST(SolverFactory, BuildsEveryKind) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  for (const auto kind :
       {SolverKind::kSequential, SolverKind::kAsyncAtomic,
        SolverKind::kAsyncWild, SolverKind::kThreadedAtomic,
        SolverKind::kThreadedWild, SolverKind::kThreadedReplicated,
        SolverKind::kTpaM4000, SolverKind::kTpaTitanX}) {
    SolverConfig config;
    config.kind = kind;
    config.threads = 4;
    const auto solver = make_solver(problem, config);
    ASSERT_NE(solver, nullptr);
    EXPECT_FALSE(solver->name().empty());
    EXPECT_EQ(solver->formulation(), Formulation::kPrimal);
  }
}

TEST(SolverFactory, ParseRoundTripsNames) {
  for (const auto kind :
       {SolverKind::kSequential, SolverKind::kAsyncAtomic,
        SolverKind::kAsyncWild, SolverKind::kThreadedAtomic,
        SolverKind::kThreadedWild, SolverKind::kThreadedReplicated,
        SolverKind::kTpaM4000, SolverKind::kTpaTitanX}) {
    EXPECT_EQ(parse_solver_kind(solver_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_solver_kind("nope"), std::invalid_argument);
}

class SolverConvergenceSweep
    : public ::testing::TestWithParam<std::tuple<Formulation, SolverKind>> {
};

// gap_every amortises the per-evaluation matrix pass: the trace holds only
// the evaluated epochs, but the final epoch is always evaluated, so the
// final gap of a subsampled run equals the every-epoch run exactly (the
// training trajectory never depends on when the gap is measured).
TEST(Convergence, GapEverySubsamplesTraceButFinalGapMatches) {
  const RidgeProblem problem(webspam_small(), 1e-3);

  SeqScdSolver every(problem, Formulation::kDual, 7);
  RunOptions every_options;
  every_options.max_epochs = 12;
  const auto every_trace = run_solver(every, problem, every_options);
  ASSERT_EQ(every_trace.points().size(), 12u);

  SeqScdSolver sub(problem, Formulation::kDual, 7);
  RunOptions sub_options;
  sub_options.max_epochs = 12;
  sub_options.gap_every = 5;
  EXPECT_EQ(effective_gap_interval(sub_options), 5);
  const auto sub_trace = run_solver(sub, problem, sub_options);

  // Evaluated epochs: 5, 10 and the always-evaluated final epoch 12.
  ASSERT_EQ(sub_trace.points().size(), 3u);
  EXPECT_EQ(sub_trace.points()[0].epoch, 5);
  EXPECT_EQ(sub_trace.points()[1].epoch, 10);
  EXPECT_EQ(sub_trace.points()[2].epoch, 12);
  EXPECT_DOUBLE_EQ(sub_trace.final_gap(), every_trace.final_gap());

  // Intermediate evaluations agree with the every-epoch trace too.
  EXPECT_DOUBLE_EQ(sub_trace.points()[0].gap, every_trace.points()[4].gap);
  EXPECT_DOUBLE_EQ(sub_trace.points()[1].gap, every_trace.points()[9].gap);
}

// Pooled gap evaluation (gap_threads > 1) changes only how the gap sum is
// chunked, never the training trajectory; values stay within the DESIGN.md
// §9 reduction tolerance of the serial evaluation.
TEST(Convergence, GapThreadsMatchesSerialEvaluation) {
  const RidgeProblem problem(webspam_small(), 1e-3);

  SeqScdSolver serial(problem, Formulation::kDual, 7);
  RunOptions serial_options;
  serial_options.max_epochs = 6;
  const auto serial_trace = run_solver(serial, problem, serial_options);

  SeqScdSolver pooled(problem, Formulation::kDual, 7);
  RunOptions pooled_options;
  pooled_options.max_epochs = 6;
  pooled_options.gap_threads = 4;
  const auto pooled_trace = run_solver(pooled, problem, pooled_options);

  ASSERT_EQ(pooled_trace.points().size(), serial_trace.points().size());
  for (std::size_t i = 0; i < serial_trace.points().size(); ++i) {
    EXPECT_NEAR(pooled_trace.points()[i].gap, serial_trace.points()[i].gap,
                1e-9 * (1.0 + std::abs(serial_trace.points()[i].gap)));
  }
}

TEST_P(SolverConvergenceSweep, ReachesSmallGap) {
  const auto [formulation, kind] = GetParam();
  const RidgeProblem problem(webspam_small(), 1e-3);
  SolverConfig config;
  config.kind = kind;
  config.formulation = formulation;
  config.threads = 8;
  const auto solver = make_solver(problem, config);
  RunOptions options;
  options.max_epochs = 60;
  options.target_gap = 1e-5;
  const auto trace = run_solver(*solver, problem, options);
  EXPECT_LE(trace.final_gap(), 1e-5)
      << solver->name() << " on " << formulation_name(formulation);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SolverConvergenceSweep,
    ::testing::Combine(::testing::Values(Formulation::kPrimal,
                                         Formulation::kDual),
                       ::testing::Values(SolverKind::kSequential,
                                         SolverKind::kAsyncAtomic,
                                         SolverKind::kTpaM4000,
                                         SolverKind::kTpaTitanX)),
    [](const auto& info) {
      std::string name = formulation_name(std::get<0>(info.param));
      name += "_";
      for (const char* p = solver_kind_name(std::get<1>(info.param));
           *p != '\0'; ++p) {
        name += *p == '-' ? '_' : *p;
      }
      return name;
    });

}  // namespace
}  // namespace tpa::core
