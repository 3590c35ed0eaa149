// The fault layer under barrier rounds: degraded aggregation when deltas are
// lost, crash backoff (doubling, in event-timeline seconds) and eviction,
// straggler deadlines with late deltas landing in the round their push
// arrives in, the checkpoint that carries late deltas in flight and replays
// faults on resume, and the headline acceptance scenario — a faulted run
// must still converge within 2x the fault-free epoch budget.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <tuple>

#include "cluster/dist_solver.hpp"
#include "data/generators.hpp"
#include "linalg/vector_ops.hpp"
#include "sparse/io_binary.hpp"

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
double invariant_error(const ClusterSolver& solver, Formulation f) {
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
  EXPECT_EQ(solver.worker_status(1), AsyncWorkerStatus::kBackoff);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kCrash), 1u);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kRestart), 0u);

  // The first backoff is one nominal cycle (point-to-point pull and push),
  // shorter than a barrier round (tree reduce and broadcast), so it has run
  // out by the next round start: the worker restarts from that round's
  // broadcast and the round is whole again.
  solver.run_epoch();
  EXPECT_EQ(solver.worker_status(1), AsyncWorkerStatus::kComputing);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kRestart), 1u);
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

  // Transit faults are transient: both workers stay attached and the next
  // round is whole again.
  EXPECT_EQ(solver.worker_status(0), AsyncWorkerStatus::kComputing);
  EXPECT_EQ(solver.worker_status(2), AsyncWorkerStatus::kComputing);
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
  EXPECT_EQ(solver.worker_status(1), AsyncWorkerStatus::kComputing);

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
  for (int epoch = 1; epoch <= 4; ++epoch) solver.run_epoch();
  // The first backoff (one nominal cycle) ran out within its crash round.
  EXPECT_EQ(solver.worker_status(1), AsyncWorkerStatus::kComputing);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kRestart), 1u);
  solver.run_epoch();  // epoch 5: the second crash
  // Second crash: the backoff doubles to two nominal cycles
  // (ldexp(cycle, 2 - 1)), longer than the crash round, so the worker
  // still sits out the next one.
  EXPECT_EQ(solver.worker_status(1), AsyncWorkerStatus::kBackoff);
  solver.run_epoch();  // epoch 6: still backing off
  EXPECT_EQ(solver.worker_status(1), AsyncWorkerStatus::kBackoff);
  EXPECT_EQ(solver.last_contributors(), 3);
  solver.run_epoch();  // epoch 7: restart fires, back in the reduce
  EXPECT_EQ(solver.worker_status(1), AsyncWorkerStatus::kComputing);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kRestart), 2u);
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
  EXPECT_EQ(solver.worker_status(1), AsyncWorkerStatus::kDetached);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kEvict), 1u);
  // Eviction is permanent: no restart ever follows the second crash.
  for (int epoch = 5; epoch <= 10; ++epoch) solver.run_epoch();
  EXPECT_EQ(solver.worker_status(1), AsyncWorkerStatus::kDetached);
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
  ASSERT_EQ(solver.worker_status(0), AsyncWorkerStatus::kDetached);
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
  // A 4x slowdown against a 1.5x grace deadline cannot make the cut: the
  // straggler stays attached, its delta still in flight.
  EXPECT_EQ(solver.last_contributors(), 3);
  EXPECT_EQ(solver.worker_status(2), AsyncWorkerStatus::kComputing);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kDeadlineMiss), 1u);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kLateDelta), 0u);
  EXPECT_LT(invariant_error(solver, Formulation::kDual), 2e-3);

  double first_gap = solver.duality_gap();
  for (int epoch = 2; epoch <= 12; ++epoch) {
    solver.run_epoch();
    EXPECT_LT(invariant_error(solver, Formulation::kDual), 2e-3)
        << "epoch " << epoch;
  }
  // The stale deltas do land, in the round their push arrives in (the
  // PASSCoDe observation): the straggler contributes every few rounds
  // rather than never.
  EXPECT_GE(count(solver.events(), ClusterEventKind::kLateDelta), 2u);
  EXPECT_GE(count(solver.events(), ClusterEventKind::kDeadlineMiss), 2u);
  // And a permanently slow worker must not diverge the run.
  EXPECT_LT(solver.duality_gap(), first_gap);
}

TEST(DistFaults, CrashLosesTheLateDeltaInFlight) {
  // Worker 2 is permanently 4x slow: its round-1 delta misses the deadline
  // and would land in round 4.  A crash scripted for round 2, while that
  // delta is in flight, still fires: the delta is lost with the cycle and
  // the worker backs off like any crashed one.
  auto config = base_config(Formulation::kDual, 4);
  config.faults.scripted.push_back(permanent_stall(2, 4.0));
  config.faults.scripted.push_back(crash_at(2, 2));
  DistributedSolver solver(corpus(), config);

  solver.run_epoch();
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kDeadlineMiss), 1u);
  solver.run_epoch();  // round 2: the crash hits the worker in flight
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kCrash), 1u);
  EXPECT_EQ(solver.worker_status(2), AsyncWorkerStatus::kBackoff);

  // It rejoins at round 3 and its new delta, pulled then, is still in
  // flight after round 5: the lost round-1 delta never landed, so the
  // worker's coordinates are still the zeros they started at.
  for (int epoch = 3; epoch <= 5; ++epoch) solver.run_epoch();
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kRestart), 1u);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kLateDelta), 0u);
  const auto weights = solver.global_weights();
  for (const auto j : solver.partition().owned[2]) {
    ASSERT_EQ(weights[j], 0.0f) << "coordinate " << j;
  }
  EXPECT_LT(invariant_error(solver, Formulation::kDual), 2e-3);
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
  resumed.restore(saved, interrupted.checkpoint_state());
  EXPECT_EQ(resumed.current_epoch(), 5);
  for (int epoch = 6; epoch <= 10; ++epoch) resumed.run_epoch();

  // The permutation streams realign exactly, and a fault-free barrier run
  // has nothing in flight at a round boundary, so the resumed run is the
  // uninterrupted run bit for bit — comfortably within the 1e-6 budget.
  EXPECT_EQ(resumed.global_weights(), straight.global_weights());
  EXPECT_EQ(resumed.global_shared(), straight.global_shared());
  EXPECT_NEAR(resumed.duality_gap(), straight.duality_gap(), 1e-6);
}

TEST(DistFaults, ResumeReplaysTheFaultScheduleDeterministically) {
  // Faults are pure functions of (seed, epoch, worker) and the sidecar
  // carries each worker's crash history, stream position and restart
  // timer, so a resumed run replays the original: worker 3's first crash
  // happens before the checkpoint, and its second — after it — evicts it
  // only because the count survived.  A permanent straggler has a delta in
  // flight at the checkpoint (pulled in round 5); the sidecar carries it
  // and the resumed run lands it in round 8, as the straight run does.
  auto config = base_config(Formulation::kDual, 4);
  config.max_restarts = 1;
  config.faults.scripted.push_back(crash_at(3, 3));
  config.faults.scripted.push_back(crash_at(7, 3));
  config.faults.scripted.push_back(permanent_stall(2, 4.0));

  DistributedSolver straight(corpus(), config);
  for (int epoch = 1; epoch <= 10; ++epoch) straight.run_epoch();
  EXPECT_EQ(count(straight.events(), ClusterEventKind::kEvict), 1u);

  DistributedSolver interrupted(corpus(), config);
  for (int epoch = 1; epoch <= 5; ++epoch) interrupted.run_epoch();
  const auto saved = interrupted.checkpoint();
  const auto state = interrupted.checkpoint_state();
  ASSERT_EQ(state.in_flight.size(), 1u);
  EXPECT_EQ(state.in_flight[0].worker, 2u);
  DistributedSolver resumed(corpus(), config);
  resumed.restore(saved, state);
  for (int epoch = 6; epoch <= 10; ++epoch) resumed.run_epoch();

  EXPECT_EQ(count(resumed.events(), ClusterEventKind::kCrash), 1u);
  EXPECT_EQ(count(resumed.events(), ClusterEventKind::kEvict), 1u);
  EXPECT_EQ(resumed.worker_status(3), AsyncWorkerStatus::kDetached);
  // The resumed run's events are the straight run's after round 5, the
  // late delta of the cycle in flight included.
  std::vector<std::tuple<int, int, ClusterEventKind>> after, replayed;
  for (const auto& event : straight.events()) {
    if (event.epoch > 5) {
      after.emplace_back(event.epoch, event.worker, event.kind);
    }
  }
  for (const auto& event : resumed.events()) {
    replayed.emplace_back(event.epoch, event.worker, event.kind);
  }
  EXPECT_EQ(replayed, after);
  EXPECT_EQ(count(resumed.events(), ClusterEventKind::kLateDelta), 1u);
  EXPECT_EQ(resumed.global_weights(), straight.global_weights());
  EXPECT_EQ(resumed.global_shared(), straight.global_shared());
}

TEST(DistFaults, CheckpointsKeepTheLateDeltaInFlight) {
  // A permanent 4x straggler's delta flies for three rounds (pulled in
  // round 1, landing in round 4), so a checkpoint every 2 rounds always
  // catches one in flight.  Checkpointing must not change the run, and a
  // resume from any of those checkpoints must land the delta on time.
  const auto path =
      (std::filesystem::temp_directory_path() / "tpa_dist_in_flight.ckpt")
          .string();
  auto config = base_config(Formulation::kDual, 4);
  config.faults.scripted.push_back(permanent_stall(2, 4.0));
  core::RunOptions options;
  options.max_epochs = 12;
  options.target_gap = 0.0;

  DistributedSolver plain(corpus(), config);
  const auto plain_trace = run_distributed(plain, options);
  ASSERT_EQ(plain_trace.count_events(ClusterEventKind::kLateDelta), 3u);

  DistributedSolver checkpointed(corpus(), config);
  const auto trace = run_distributed(checkpointed, options, {path, 2});
  EXPECT_EQ(trace.count_events(ClusterEventKind::kLateDelta), 3u);
  EXPECT_EQ(checkpointed.global_weights(), plain.global_weights());
  EXPECT_EQ(checkpointed.global_shared(), plain.global_shared());

  // Stop after round 6: the delta pulled in round 5 is in flight.
  core::RunOptions first_leg_options = options;
  first_leg_options.max_epochs = 6;
  DistributedSolver first_leg(corpus(), config);
  run_distributed(first_leg, first_leg_options, {path, 2});
  const auto state = read_async_state_file(async_state_path(path));
  EXPECT_TRUE(state.barrier);
  ASSERT_EQ(state.in_flight.size(), 1u);
  EXPECT_EQ(state.in_flight[0].worker, 2u);
  EXPECT_EQ(state.in_flight[0].pulled_round, 5u);

  DistributedSolver resumed(corpus(), config);
  resumed.restore_files(path);
  const auto resumed_trace = run_distributed(resumed, options);
  // Rounds 8 and 12: the re-armed delta and the one after it.
  EXPECT_EQ(resumed_trace.count_events(ClusterEventKind::kLateDelta), 2u);
  EXPECT_EQ(resumed.global_weights(), plain.global_weights());
  EXPECT_EQ(resumed.global_shared(), plain.global_shared());
  std::remove(path.c_str());
  std::remove(async_state_path(path).c_str());
}

TEST(DistFaults, RestoreValidatesTheCheckpoint) {
  // Worker 2 is a permanent straggler, so the checkpoint after round 2
  // carries its round-1 delta in flight.
  auto config = base_config(Formulation::kDual, 4);
  config.faults.scripted.push_back(permanent_stall(2, 4.0));
  DistributedSolver solver(corpus(), config);
  solver.run_epoch();
  solver.run_epoch();
  const auto saved = solver.checkpoint();
  const auto state = solver.checkpoint_state();
  ASSERT_EQ(state.in_flight.size(), 1u);
  DistributedSolver(corpus(), config).restore(saved, state);  // the good pair

  const auto refused = [&](const core::SavedModel& model,
                           const AsyncCheckpointState& bad) {
    DistributedSolver fresh(corpus(), config);
    EXPECT_THROW(fresh.restore(model, bad), std::invalid_argument);
  };
  auto wrong_form = saved;
  wrong_form.formulation = Formulation::kPrimal;
  wrong_form.weights.resize(1024);  // primal dim, to isolate the form check
  refused(wrong_form, state);
  auto wrong_dim = saved;
  wrong_dim.weights.pop_back();
  refused(wrong_dim, state);
  auto wrong_lambda = saved;
  wrong_lambda.lambda = 2e-3;
  refused(wrong_lambda, state);

  // Restoring into a solver that already ran is a logic error: permutation
  // streams would desync and the "resume" would silently diverge.
  EXPECT_THROW(solver.restore(saved, state), std::logic_error);

  // The digest only proves the sidecar is what a writer wrote: every field
  // a run cannot have written is refused too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto backoff = static_cast<std::uint32_t>(AsyncWorkerStatus::kBackoff);
  auto bad = state;
  bad.workers[0].status = 7;  // no such status
  refused(saved, bad);
  bad = state;
  bad.workers[0].draws_consumed =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max()) + 1;
  refused(saved, bad);
  bad = state;
  bad.workers[0].crash_count = 0x80000000u;
  refused(saved, bad);
  for (const double at : {nan, inf, -1.0}) {
    bad = state;
    bad.workers[0].status = backoff;
    bad.workers[0].restart_at = at;
    refused(saved, bad);
  }
  bad = state;
  bad.workers[0].restart_at = 1.0;  // a timer on a computing worker
  refused(saved, bad);
  bad = state;
  bad.barrier = false;  // a no-barrier run's sidecar
  bad.in_flight.clear();
  refused(saved, bad);
  for (const double clock : {nan, -1.0}) {
    bad = state;
    bad.clock = clock;
    refused(saved, bad);
  }
  auto far = saved;
  far.epoch = 3000000000u;
  bad = state;
  bad.round = far.epoch;
  refused(far, bad);

  // The cycle in flight.
  bad = state;
  bad.in_flight[0].worker = 9;
  refused(saved, bad);
  bad = state;
  bad.in_flight.push_back(bad.in_flight[0]);  // the same worker twice
  refused(saved, bad);
  bad = state;
  bad.workers[2].status = backoff;  // in flight, but not computing
  refused(saved, bad);
  for (const std::uint64_t round : {0u, 3u}) {
    bad = state;
    bad.in_flight[0].pulled_round = round;
    refused(saved, bad);
  }
  bad = state;
  bad.in_flight[0].pulled_version = state.version + 1;
  refused(saved, bad);
  for (const double at : {nan, -1.0}) {
    bad = state;
    bad.in_flight[0].push_at = at;
    refused(saved, bad);
  }
  bad = state;
  bad.in_flight[0].weights.pop_back();
  refused(saved, bad);
  bad = state;
  bad.in_flight[0].pulled_shared.pop_back();
  refused(saved, bad);
  bad = state;
  bad.in_flight[0].shared[0] = std::numeric_limits<float>::quiet_NaN();
  refused(saved, bad);
}

TEST(DistFaults, BarrierSidecarRoundtripsItsCyclesInFlight) {
  const auto path =
      (std::filesystem::temp_directory_path() / "tpa_dist_sidecar.bin")
          .string();
  AsyncCheckpointState state;
  state.round = 6;
  state.version = 5;
  state.seed = 99;
  state.workers.assign(2, {});
  state.barrier = true;
  state.clock = 12.5;
  AsyncCheckpointState::InFlightCycle cycle;
  cycle.worker = 1;
  cycle.pulled_round = 5;
  cycle.pulled_version = 4;
  cycle.push_at = 13.25;
  cycle.weights = {1.0f, 2.0f};
  cycle.shared = {3.0f, 4.0f, 5.0f};
  cycle.pulled_shared = {6.0f, 7.0f, 8.0f};
  state.in_flight.push_back(cycle);
  write_async_state_file(path, state);
  const auto loaded = read_async_state_file(path);
  EXPECT_TRUE(loaded.barrier);
  EXPECT_DOUBLE_EQ(loaded.clock, 12.5);
  ASSERT_EQ(loaded.in_flight.size(), 1u);
  const auto& back = loaded.in_flight[0];
  EXPECT_EQ(back.worker, 1u);
  EXPECT_EQ(back.pulled_round, 5u);
  EXPECT_EQ(back.pulled_version, 4u);
  EXPECT_DOUBLE_EQ(back.push_at, 13.25);
  EXPECT_EQ(back.weights, cycle.weights);
  EXPECT_EQ(back.shared, cycle.shared);
  EXPECT_EQ(back.pulled_shared, cycle.pulled_shared);

  // More cycles in flight than workers is a malformed file, refused before
  // any of their arrays is read.
  state.in_flight.assign(3, cycle);
  write_async_state_file(path, state);
  EXPECT_THROW(read_async_state_file(path), sparse::FormatError);
  std::remove(path.c_str());
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
  // The control-plane sidecar rides along; the atomic writes leave no
  // temp file behind.
  EXPECT_EQ(read_async_state_file(async_state_path(path)).round, 5u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(async_state_path(path) + ".tmp"));
  // Every trace point carries the contributor count for the fault log.
  for (const auto& point : trace.points()) {
    EXPECT_EQ(point.contributors, 2);
  }
  std::remove(path.c_str());
  std::remove(async_state_path(path).c_str());
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
