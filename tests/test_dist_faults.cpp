// The distributed fault layer: degraded aggregation when deltas are lost,
// crash/backoff/restart/eviction state machines, straggler deadlines with
// late-delta incorporation, checkpoint/restore, and the headline acceptance
// scenario — a faulted run must still converge within 2x the fault-free
// epoch budget.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <tuple>

#include "cluster/dist_solver.hpp"
#include "data/generators.hpp"
#include "linalg/vector_ops.hpp"

namespace tpa::cluster {
namespace {

using core::ClusterEventKind;
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

FaultEvent crash_at(int epoch, int worker) {
  FaultEvent event;
  event.epoch = epoch;
  event.worker = worker;
  event.kind = FaultKind::kCrash;
  return event;
}

FaultEvent permanent_stall(int worker, double factor) {
  FaultEvent event;
  event.epoch = 1;
  event.worker = worker;
  event.kind = FaultKind::kStall;
  event.stall_factor = factor;
  event.permanent = true;
  return event;
}

std::size_t count(const std::vector<core::ClusterEvent>& events,
                  ClusterEventKind kind) {
  std::size_t n = 0;
  for (const auto& event : events) n += event.kind == kind;
  return n;
}

/// max |shared - A x assembled| — the Algorithms 3/4 consistency invariant
/// the fault layer must preserve through every degraded epoch.
double invariant_error(const DistributedSolver& solver, Formulation f) {
  const auto weights = solver.global_weights();
  const auto& by_row = corpus().by_row();
  const auto expected = f == Formulation::kPrimal
                            ? linalg::csr_matvec(by_row, weights)
                            : linalg::csr_matvec_transposed(by_row, weights);
  return linalg::max_abs_diff(solver.global_shared(), expected);
}

// --- Degraded aggregation ---------------------------------------------------

TEST(DistFaults, CrashEpochRescalesGammaToSurvivors) {
  auto config = base_config(Formulation::kDual, 4);
  config.faults.scripted.push_back(crash_at(3, 1));
  DistributedSolver solver(corpus(), config);

  solver.run_epoch();
  solver.run_epoch();
  EXPECT_EQ(solver.last_contributors(), 4);
  EXPECT_DOUBLE_EQ(solver.last_gamma(), 0.25);

  // Crash epoch: three deltas land, and averaging rescales to 1/3.
  solver.run_epoch();
  EXPECT_EQ(solver.last_contributors(), 3);
  EXPECT_DOUBLE_EQ(solver.last_gamma(), 1.0 / 3.0);
  EXPECT_EQ(solver.worker_status(1), WorkerStatus::kBackoff);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kCrash), 1u);

  // Backoff epoch: the worker restarts (seeded from master state) but sits
  // this round out.
  solver.run_epoch();
  EXPECT_EQ(solver.last_contributors(), 3);
  EXPECT_EQ(solver.worker_status(1), WorkerStatus::kActive);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kRestart), 1u);

  // Fully recovered.
  solver.run_epoch();
  EXPECT_EQ(solver.last_contributors(), 4);
  EXPECT_DOUBLE_EQ(solver.last_gamma(), 0.25);
}

class DegradedInvariantSweep
    : public ::testing::TestWithParam<
          std::tuple<Formulation, AggregationMode>> {};

TEST_P(DegradedInvariantSweep, InvariantSurvivesCrashEpoch) {
  const auto [f, mode] = GetParam();
  auto config = base_config(f, 4);
  config.aggregation = mode;
  config.faults.scripted.push_back(crash_at(3, 1));
  DistributedSolver solver(corpus(), config);
  double first_gap = 0.0;
  for (int epoch = 1; epoch <= 8; ++epoch) {
    solver.run_epoch();
    if (epoch == 1) first_gap = solver.duality_gap();
    // shared == A x weights must hold at *every* epoch boundary, most
    // importantly right after the degraded 3-of-4 aggregation.
    EXPECT_LT(invariant_error(solver, f), 2e-3) << "epoch " << epoch;
  }
  // Losing 1 of 4 workers for one round must not diverge the run.
  EXPECT_LT(solver.duality_gap(), first_gap);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DegradedInvariantSweep,
    ::testing::Combine(::testing::Values(Formulation::kPrimal,
                                         Formulation::kDual),
                       ::testing::Values(AggregationMode::kAveraging,
                                         AggregationMode::kAdaptive)),
    [](const auto& info) {
      return std::string(formulation_name(std::get<0>(info.param))) + "_" +
             aggregation_name(std::get<1>(info.param));
    });

TEST(DistFaults, DroppedAndCorruptedDeltasAreExcludedNotAggregated) {
  auto config = base_config(Formulation::kDual, 4);
  FaultEvent drop;
  drop.epoch = 2;
  drop.worker = 0;
  drop.kind = FaultKind::kDropDelta;
  config.faults.scripted.push_back(drop);
  FaultEvent corrupt;
  corrupt.epoch = 3;
  corrupt.worker = 2;
  corrupt.kind = FaultKind::kCorruptDelta;
  config.faults.scripted.push_back(corrupt);
  DistributedSolver solver(corpus(), config);

  solver.run_epoch();
  solver.run_epoch();  // worker 0's delta lost in transit
  EXPECT_EQ(solver.last_contributors(), 3);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kDeltaDropped), 1u);
  EXPECT_LT(invariant_error(solver, Formulation::kDual), 2e-3);

  solver.run_epoch();  // worker 2's delta bit-flipped; checksum rejects it
  EXPECT_EQ(solver.last_contributors(), 3);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kDeltaCorrupted), 1u);
  EXPECT_LT(invariant_error(solver, Formulation::kDual), 2e-3);

  // Transit faults are transient: both workers stay active and the next
  // round is whole again.
  EXPECT_EQ(solver.worker_status(0), WorkerStatus::kActive);
  EXPECT_EQ(solver.worker_status(2), WorkerStatus::kActive);
  solver.run_epoch();
  EXPECT_EQ(solver.last_contributors(), 4);
}

TEST(DistFaults, CorruptCompressedDeltaIsCaughtByTheEncodedChecksum) {
  // With compression on, the bit flip lands in the quantized payload; the
  // checksum over the encoded image must still reject the delta and the
  // epoch must degrade to the survivors, exactly like the raw-fp64 path.
  auto config = base_config(Formulation::kDual, 4);
  config.compress_deltas = true;
  FaultEvent corrupt;
  corrupt.epoch = 2;
  corrupt.worker = 1;
  corrupt.kind = FaultKind::kCorruptDelta;
  config.faults.scripted.push_back(corrupt);
  DistributedSolver solver(corpus(), config);

  solver.run_epoch();
  solver.run_epoch();
  EXPECT_EQ(solver.last_contributors(), 3);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kDeltaCorrupted), 1u);
  EXPECT_EQ(solver.worker_status(1), WorkerStatus::kActive);

  // Quantization bounds the invariant drift per applied delta; a corrupted
  // round must not loosen it further.
  EXPECT_LT(invariant_error(solver, Formulation::kDual), 5e-3);
  solver.run_epoch();
  EXPECT_EQ(solver.last_contributors(), 4);
}

TEST(DistFaults, EpochWithNoSurvivorsLeavesTheModelUntouched) {
  auto config = base_config(Formulation::kDual, 2);
  config.faults.scripted.push_back(crash_at(3, 0));
  config.faults.scripted.push_back(crash_at(3, 1));
  DistributedSolver solver(corpus(), config);
  solver.run_epoch();
  solver.run_epoch();
  const auto shared_before = solver.global_shared();
  const auto weights_before = solver.global_weights();

  solver.run_epoch();  // everyone crashed: gamma = 0, nothing applied
  EXPECT_EQ(solver.last_contributors(), 0);
  EXPECT_DOUBLE_EQ(solver.last_gamma(), 0.0);
  EXPECT_EQ(solver.global_shared(), shared_before);
  EXPECT_EQ(solver.global_weights(), weights_before);
}

// --- Crash / restart / eviction state machine -------------------------------

TEST(DistFaults, SecondCrashDoublesTheBackoff) {
  auto config = base_config(Formulation::kDual, 4);
  config.faults.scripted.push_back(crash_at(3, 1));
  config.faults.scripted.push_back(crash_at(5, 1));
  DistributedSolver solver(corpus(), config);
  for (int epoch = 1; epoch <= 5; ++epoch) solver.run_epoch();
  // Second crash: backoff doubles to two epochs (1 << (2 - 1)).
  EXPECT_EQ(solver.worker_status(1), WorkerStatus::kBackoff);
  solver.run_epoch();  // epoch 6: still backing off
  EXPECT_EQ(solver.worker_status(1), WorkerStatus::kBackoff);
  solver.run_epoch();  // epoch 7: restart fires
  EXPECT_EQ(solver.worker_status(1), WorkerStatus::kActive);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kRestart), 2u);
  solver.run_epoch();  // epoch 8: back in the reduce
  EXPECT_EQ(solver.last_contributors(), 4);
}

TEST(DistFaults, ExceedingMaxRestartsEvicts) {
  auto config = base_config(Formulation::kDual, 4);
  config.max_restarts = 1;
  config.faults.scripted.push_back(crash_at(2, 1));
  config.faults.scripted.push_back(crash_at(4, 1));
  DistributedSolver solver(corpus(), config);
  for (int epoch = 1; epoch <= 4; ++epoch) solver.run_epoch();
  // First crash was survivable; the second exceeds max_restarts = 1.
  EXPECT_EQ(solver.worker_status(1), WorkerStatus::kEvicted);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kEvict), 1u);
  // Eviction is permanent: no restart ever follows the second crash.
  for (int epoch = 5; epoch <= 10; ++epoch) solver.run_epoch();
  EXPECT_EQ(solver.worker_status(1), WorkerStatus::kEvicted);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kRestart), 1u);
  EXPECT_EQ(solver.last_contributors(), 3);
}

TEST(DistFaults, EvictionFreezesTheWorkersCoordinates) {
  auto config = base_config(Formulation::kDual, 4);
  config.max_restarts = 0;  // first crash is fatal
  config.faults.scripted.push_back(crash_at(2, 0));
  DistributedSolver solver(corpus(), config);
  solver.run_epoch();
  solver.run_epoch();
  ASSERT_EQ(solver.worker_status(0), WorkerStatus::kEvicted);
  const auto frozen = solver.global_weights();
  const double gap_at_eviction = solver.duality_gap();

  for (int epoch = 3; epoch <= 8; ++epoch) solver.run_epoch();
  const auto later = solver.global_weights();
  ASSERT_EQ(later.size(), frozen.size());
  std::size_t unchanged = 0;
  for (std::size_t j = 0; j < later.size(); ++j) {
    unchanged += later[j] == frozen[j];
  }
  // The evicted worker owns ~1/4 of the coordinates; exactly those stay
  // bit-identical while the surviving workers keep moving theirs.
  EXPECT_GE(unchanged, later.size() / 4);
  EXPECT_LE(unchanged, 3 * later.size() / 4);
  // The survivors still make progress on their subproblem...
  EXPECT_LT(solver.duality_gap(), gap_at_eviction);
  // ...without ever breaking consistency.
  EXPECT_LT(invariant_error(solver, Formulation::kDual), 2e-3);
}

// --- Stragglers and late deltas ---------------------------------------------

TEST(DistFaults, StragglerMissesDeadlineAndLandsLate) {
  auto config = base_config(Formulation::kDual, 4);
  config.faults.scripted.push_back(permanent_stall(2, 4.0));
  DistributedSolver solver(corpus(), config);

  solver.run_epoch();
  // A 4x slowdown against a 1.5x grace deadline cannot make the cut.
  EXPECT_EQ(solver.last_contributors(), 3);
  EXPECT_EQ(solver.worker_status(2), WorkerStatus::kInFlight);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kDeadlineMiss), 1u);
  EXPECT_GT(solver.last_deadline_seconds(), 0.0);
  EXPECT_LT(invariant_error(solver, Formulation::kDual), 2e-3);

  double first_gap = solver.duality_gap();
  for (int epoch = 2; epoch <= 12; ++epoch) {
    solver.run_epoch();
    EXPECT_LT(invariant_error(solver, Formulation::kDual), 2e-3)
        << "epoch " << epoch;
  }
  // The stale deltas do land (the PASSCoDe observation): the straggler
  // contributes every few rounds rather than never.
  EXPECT_GE(count(solver.events(), ClusterEventKind::kLateDelta), 2u);
  EXPECT_GE(count(solver.events(), ClusterEventKind::kDeadlineMiss), 2u);
  // And a permanently slow worker must not diverge the run.
  EXPECT_LT(solver.duality_gap(), first_gap);
}

TEST(DistFaults, DeadlineMissExtendsTheEpochToTheGraceWindow) {
  auto stalled_config = base_config(Formulation::kDual, 4);
  stalled_config.faults.scripted.push_back(permanent_stall(1, 4.0));
  DistributedSolver stalled(corpus(), stalled_config);
  DistributedSolver healthy(corpus(), base_config(Formulation::kDual, 4));
  const double stalled_seconds = stalled.run_epoch().sim_seconds;
  const double healthy_seconds = healthy.run_epoch().sim_seconds;
  // The master waits out the full grace window before giving up on the
  // straggler — slower than a clean epoch, but far better than the 4x
  // stall a deadline-free synchronous reduce would eat.
  EXPECT_GT(stalled_seconds, healthy_seconds);
  EXPECT_LT(stalled.last_attribution().compute_seconds +
                stalled.last_attribution().straggler_wait_seconds,
            4.0 * (healthy.last_attribution().compute_seconds +
                   healthy.last_attribution().straggler_wait_seconds));
}

// --- Checkpoint / restore ---------------------------------------------------

TEST(DistFaults, CheckpointRestoreReproducesTheUninterruptedRun) {
  const auto config = base_config(Formulation::kDual, 4);

  DistributedSolver straight(corpus(), config);
  for (int epoch = 1; epoch <= 10; ++epoch) straight.run_epoch();

  DistributedSolver interrupted(corpus(), config);
  for (int epoch = 1; epoch <= 5; ++epoch) interrupted.run_epoch();
  const auto saved = interrupted.checkpoint();
  EXPECT_EQ(saved.epoch, 5u);

  DistributedSolver resumed(corpus(), config);
  resumed.restore(saved);
  EXPECT_EQ(resumed.current_epoch(), 5);
  for (int epoch = 6; epoch <= 10; ++epoch) resumed.run_epoch();

  // The permutation streams realign exactly, so the resumed run is the
  // uninterrupted run bit for bit — comfortably within the 1e-6 budget.
  EXPECT_EQ(resumed.global_weights(), straight.global_weights());
  EXPECT_EQ(resumed.global_shared(), straight.global_shared());
  EXPECT_NEAR(resumed.duality_gap(), straight.duality_gap(), 1e-6);
}

TEST(DistFaults, ResumeReplaysTheFaultScheduleDeterministically) {
  // Faults are pure functions of (seed, epoch, worker), so a resumed run
  // sees the same schedule; a cold cluster restart clears crash history,
  // but a *scripted* post-checkpoint fault must replay identically.
  auto config = base_config(Formulation::kDual, 4);
  config.faults.scripted.push_back(crash_at(7, 3));

  DistributedSolver straight(corpus(), config);
  for (int epoch = 1; epoch <= 10; ++epoch) straight.run_epoch();

  DistributedSolver interrupted(corpus(), config);
  for (int epoch = 1; epoch <= 5; ++epoch) interrupted.run_epoch();
  DistributedSolver resumed(corpus(), config);
  resumed.restore(interrupted.checkpoint());
  for (int epoch = 6; epoch <= 10; ++epoch) resumed.run_epoch();

  EXPECT_EQ(count(resumed.events(), ClusterEventKind::kCrash), 1u);
  EXPECT_EQ(resumed.global_weights(), straight.global_weights());
  EXPECT_EQ(resumed.global_shared(), straight.global_shared());
}

TEST(DistFaults, RestoreValidatesTheCheckpoint) {
  const auto config = base_config(Formulation::kDual, 4);
  DistributedSolver solver(corpus(), config);
  auto good = solver.checkpoint();

  auto wrong_form = good;
  wrong_form.formulation = Formulation::kPrimal;
  wrong_form.weights.resize(1024);  // primal dim, to isolate the form check
  EXPECT_THROW(DistributedSolver(corpus(), config).restore(wrong_form),
               std::invalid_argument);

  auto wrong_dim = good;
  wrong_dim.weights.resize(good.weights.size() - 1);
  EXPECT_THROW(DistributedSolver(corpus(), config).restore(wrong_dim),
               std::invalid_argument);

  auto wrong_lambda = good;
  wrong_lambda.lambda = 2e-3;
  EXPECT_THROW(DistributedSolver(corpus(), config).restore(wrong_lambda),
               std::invalid_argument);

  // Restoring into a solver that already ran is a logic error: permutation
  // streams would desync and the "resume" would silently diverge.
  solver.run_epoch();
  EXPECT_THROW(solver.restore(good), std::logic_error);
}

TEST(DistFaults, RunDistributedWritesAtomicPeriodicCheckpoints) {
  const auto path =
      (std::filesystem::temp_directory_path() / "tpa_dist_faults.ckpt")
          .string();
  auto config = base_config(Formulation::kDual, 2);
  DistributedSolver solver(corpus(), config);
  core::RunOptions options;
  options.max_epochs = 5;
  options.target_gap = 0.0;
  CheckpointConfig ckpt;
  ckpt.path = path;
  ckpt.every_epochs = 2;
  const auto trace = run_distributed(solver, options, ckpt);

  // Checkpoints at epochs 2 and 4, plus the final one at 5.
  EXPECT_EQ(trace.count_events(core::ClusterEventKind::kCheckpoint), 3u);
  const auto saved = core::read_model_file(path);
  EXPECT_EQ(saved.epoch, 5u);
  EXPECT_EQ(saved.weights, solver.global_weights());
  // The atomic write leaves no temp file behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Every trace point carries the contributor count for the fault log.
  for (const auto& point : trace.points()) {
    EXPECT_EQ(point.contributors, 2);
  }
  std::remove(path.c_str());
}

// --- The acceptance scenario ------------------------------------------------

TEST(DistFaults, FaultedRunConvergesWithinTwiceTheFaultFreeBudget) {
  // ISSUE acceptance criterion: seeded injector, 4 workers, a crash at
  // epoch 3 plus one permanent straggler; the run must reach gap <= 1e-3
  // within 2x the epochs the fault-free run needs.
  auto config = base_config(Formulation::kDual, 4);
  config.aggregation = AggregationMode::kAdaptive;
  core::RunOptions options;
  options.max_epochs = 300;
  options.target_gap = 1e-3;

  DistributedSolver clean(corpus(), config);
  const auto clean_trace = run_distributed(clean, options);
  ASSERT_LE(clean_trace.final_gap(), 1e-3)
      << "fault-free baseline never converged";
  const int clean_epochs = clean_trace.points().back().epoch;

  auto faulted_config = config;
  faulted_config.faults.seed = 0x5eed;
  faulted_config.faults.scripted.push_back(crash_at(3, 1));
  faulted_config.faults.scripted.push_back(permanent_stall(2, 4.0));
  DistributedSolver faulted(corpus(), faulted_config);
  core::RunOptions faulted_options = options;
  faulted_options.max_epochs = 2 * clean_epochs;
  const auto faulted_trace = run_distributed(faulted, faulted_options);

  EXPECT_LE(faulted_trace.final_gap(), 1e-3)
      << "faulted run needed more than 2x the fault-free budget ("
      << clean_epochs << " epochs)";
  // The scenario actually exercised the fault machinery.
  EXPECT_EQ(faulted_trace.count_events(core::ClusterEventKind::kCrash), 1u);
  EXPECT_GE(faulted_trace.count_events(core::ClusterEventKind::kDeadlineMiss),
            1u);
  EXPECT_GE(faulted_trace.count_events(core::ClusterEventKind::kLateDelta),
            1u);
}

}  // namespace
}  // namespace tpa::cluster
