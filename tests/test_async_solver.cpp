// The bounded-staleness asynchronous driver: no-barrier convergence, the
// shared == A·weights invariant under every interleaving, the staleness
// window (damp and reject policies), crash/backoff/evict state machines,
// elastic join/leave membership, and bit-exact checkpoint/resume with
// faults and membership replaying deterministically.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <tuple>

#include "cluster/async_solver.hpp"
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

AsyncConfig base_config(Formulation f, int workers) {
  AsyncConfig config;
  config.formulation = f;
  config.num_workers = workers;
  config.local_solver.kind = core::SolverKind::kSequential;
  config.lambda = 1e-3;
  return config;
}

FaultEvent crash_at(int round, int worker) {
  FaultEvent event;
  event.epoch = round;
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

/// max |shared - A x assembled|: the invariant every applied delta must
/// preserve exactly, no matter how stale or damped.
double invariant_error(const AsyncSolver& solver, Formulation f) {
  const auto weights = solver.global_weights();
  const auto& by_row = corpus().by_row();
  const auto expected = f == Formulation::kPrimal
                            ? linalg::csr_matvec(by_row, weights)
                            : linalg::csr_matvec_transposed(by_row, weights);
  return linalg::max_abs_diff(solver.global_shared(), expected);
}

double run_rounds(AsyncSolver& solver, int rounds) {
  double sim = 0.0;
  for (int r = 0; r < rounds; ++r) sim += solver.run_epoch().sim_seconds;
  return sim;
}

// --- No-barrier convergence -------------------------------------------------

TEST(AsyncSolver, ConvergesWithoutFaults) {
  auto config = base_config(Formulation::kDual, 4);
  AsyncSolver solver(corpus(), config);
  solver.run_epoch();
  const double first_gap = solver.duality_gap();
  run_rounds(solver, 11);
  EXPECT_LT(solver.duality_gap(), 0.25 * first_gap);
  // Fault-free: every round absorbs exactly one applied push per member.
  EXPECT_EQ(solver.version(), 12u * 4u);
  EXPECT_EQ(solver.last_contributors(), 4);
  EXPECT_DOUBLE_EQ(solver.last_gamma(), 0.25);
}

TEST(AsyncSolver, CompressedPushesConvergeAndHalveWireBytes) {
  auto config = base_config(Formulation::kDual, 4);
  config.compress_deltas = true;
  AsyncSolver solver(corpus(), config);
  solver.run_epoch();
  const double first_gap = solver.duality_gap();
  run_rounds(solver, 11);
  EXPECT_LT(solver.duality_gap(), 0.25 * first_gap);
  // Push leg is quantized; the metric baselines against the raw fp64 image.
  EXPECT_GT(solver.delta_bytes_on_wire(), 0u);
  EXPECT_GE(solver.delta_bytes_dense(), 2 * solver.delta_bytes_on_wire());
}

TEST(AsyncFaults, CorruptCompressedPushIsRejectedByTheChecksum) {
  auto config = base_config(Formulation::kDual, 4);
  config.compress_deltas = true;
  FaultEvent corrupt;
  corrupt.epoch = 2;
  corrupt.worker = 1;
  corrupt.kind = FaultKind::kCorruptDelta;
  config.faults.scripted.push_back(corrupt);
  AsyncSolver solver(corpus(), config);
  run_rounds(solver, 4);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kDeltaCorrupted), 1u);
  // The corrupted push is discarded whole, so the invariant only carries
  // the fp16 quantization error of the applied deltas.
  EXPECT_LT(invariant_error(solver, Formulation::kDual), 5e-3);
}

TEST(AsyncSolver, SteadyStateStalenessStaysInsideAutoWindow) {
  auto config = base_config(Formulation::kDual, 4);
  AsyncSolver solver(corpus(), config);
  EXPECT_EQ(solver.effective_staleness_window(), 6);  // 2(K-1)
  run_rounds(solver, 10);
  // Healthy pipelined cycles lag by about K-1 versions — never damped.
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kStaleDamped), 0u);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kStaleRejected), 0u);
}

class AsyncInvariantSweep
    : public ::testing::TestWithParam<
          std::tuple<Formulation, AggregationMode>> {};

TEST_P(AsyncInvariantSweep, InvariantHoldsEveryRound) {
  const auto [f, mode] = GetParam();
  auto config = base_config(f, 4);
  config.aggregation = mode;
  // Stress the interleavings: a straggler forces stale deltas through the
  // damping path while the healthy workers lap it.
  config.faults.scripted.push_back(permanent_stall(0, 4.0));
  config.staleness_window = 2;
  AsyncSolver solver(corpus(), config);
  double first_gap = 0.0;
  for (int round = 1; round <= 8; ++round) {
    solver.run_epoch();
    if (round == 1) first_gap = solver.duality_gap();
    // Looser than the fault-free bound: every damped push rounds the full
    // shared vector through float32 once more.
    EXPECT_LT(invariant_error(solver, f), 5e-3) << "round " << round;
  }
  EXPECT_LT(solver.duality_gap(), first_gap);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AsyncInvariantSweep,
    ::testing::Combine(::testing::Values(Formulation::kPrimal,
                                         Formulation::kDual),
                       ::testing::Values(AggregationMode::kAveraging,
                                         AggregationMode::kAdaptive)),
    [](const auto& info) {
      return std::string(formulation_name(std::get<0>(info.param))) + "_" +
             aggregation_name(std::get<1>(info.param));
    });

// --- Staleness window -------------------------------------------------------

TEST(AsyncStaleness, StragglerDeltasAreDampedBeyondTheWindow) {
  auto config = base_config(Formulation::kDual, 4);
  config.faults.scripted.push_back(permanent_stall(0, 6.0));
  config.staleness_window = 1;
  AsyncSolver solver(corpus(), config);
  run_rounds(solver, 8);
  // The straggler's cycles span many applied versions; with τ = 1 every one
  // of its pushes lands damped, yet all pushes still apply.
  EXPECT_GT(count(solver.events(), ClusterEventKind::kStaleDamped), 0u);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kStaleRejected), 0u);
  EXPECT_EQ(solver.version(), 8u * 4u);
}

TEST(AsyncStaleness, RejectPolicyDiscardsInsteadOfDamping) {
  auto config = base_config(Formulation::kDual, 4);
  config.faults.scripted.push_back(permanent_stall(0, 6.0));
  config.staleness_window = 1;
  config.staleness_policy = StalenessPolicy::kReject;
  AsyncSolver solver(corpus(), config);
  solver.run_epoch();
  const double first_gap = solver.duality_gap();
  run_rounds(solver, 7);
  const auto rejected =
      count(solver.events(), ClusterEventKind::kStaleRejected);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kStaleDamped), 0u);
  // Rejected pushes never tick the version clock.
  EXPECT_EQ(solver.version(), 8u * 4u - rejected);
  EXPECT_LT(solver.duality_gap(), first_gap);
  EXPECT_LT(invariant_error(solver, Formulation::kDual), 2e-3);
}

// --- Crash / backoff / evict ------------------------------------------------

TEST(AsyncFaults, CrashBacksOffRestartsAndRecovers) {
  auto config = base_config(Formulation::kDual, 4);
  config.faults.scripted.push_back(crash_at(3, 1));
  AsyncSolver solver(corpus(), config);
  solver.run_epoch();
  const double first_gap = solver.duality_gap();
  run_rounds(solver, 9);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kCrash), 1u);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kRestart), 1u);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kEvict), 0u);
  EXPECT_EQ(solver.worker_status(1), AsyncWorkerStatus::kComputing);
  EXPECT_EQ(solver.live_workers(), 4);
  EXPECT_LT(solver.duality_gap(), first_gap);
  EXPECT_LT(invariant_error(solver, Formulation::kDual), 2e-3);
}

TEST(AsyncFaults, RepeatedCrashesEvictAndFreezeThePartition) {
  auto config = base_config(Formulation::kDual, 4);
  config.max_restarts = 1;
  for (int round = 1; round <= 6; ++round) {
    config.faults.scripted.push_back(crash_at(round, 1));
  }
  AsyncSolver solver(corpus(), config);
  run_rounds(solver, 10);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kEvict), 1u);
  EXPECT_EQ(solver.worker_status(1), AsyncWorkerStatus::kDetached);
  EXPECT_EQ(solver.live_workers(), 3);
  // γ rescaled to the survivors.
  EXPECT_DOUBLE_EQ(solver.last_gamma(), 1.0 / 3.0);
  EXPECT_LT(invariant_error(solver, Formulation::kDual), 2e-3);
}

// --- Elastic membership -----------------------------------------------------

TEST(AsyncElastic, LeaveRescalesGammaAndFreezesTheSlot) {
  auto config = base_config(Formulation::kDual, 4);
  config.membership.push_back({3, 2, MembershipEvent::Kind::kLeave});
  AsyncSolver solver(corpus(), config);
  run_rounds(solver, 2);
  const auto frozen_before = solver.global_weights();
  run_rounds(solver, 4);
  EXPECT_EQ(count(solver.events(), ClusterEventKind::kLeave), 1u);
  EXPECT_EQ(solver.worker_status(2), AsyncWorkerStatus::kDetached);
  EXPECT_EQ(solver.live_workers(), 3);
  EXPECT_DOUBLE_EQ(solver.last_gamma(), 1.0 / 3.0);
  EXPECT_EQ(solver.effective_staleness_window(), 4);  // 2(live-1)
  // The leaver's committed coordinates stay frozen in the global model.
  const auto frozen_after = solver.global_weights();
  bool moved = false;
  for (std::size_t j = 0; j < frozen_after.size(); ++j) {
    moved = moved || frozen_after[j] != frozen_before[j];
  }
  EXPECT_TRUE(moved);  // the live partitions kept optimising...
  EXPECT_LT(invariant_error(solver, Formulation::kDual), 2e-3);
}

TEST(AsyncElastic, JoinRevivesAnEvictedSlotAndBeatsTheFrozenArm) {
  auto config = base_config(Formulation::kDual, 4);
  config.max_restarts = 1;
  for (int round = 1; round <= 4; ++round) {
    config.faults.scripted.push_back(crash_at(round, 1));
  }

  auto frozen_config = config;  // eviction with no recovery
  AsyncSolver frozen(corpus(), frozen_config);
  run_rounds(frozen, 16);
  EXPECT_EQ(frozen.worker_status(1), AsyncWorkerStatus::kDetached);

  config.membership.push_back({8, 1, MembershipEvent::Kind::kJoin});
  AsyncSolver elastic(corpus(), config);
  run_rounds(elastic, 16);
  EXPECT_EQ(count(elastic.events(), ClusterEventKind::kEvict), 1u);
  EXPECT_EQ(count(elastic.events(), ClusterEventKind::kJoin), 1u);
  EXPECT_EQ(elastic.worker_status(1), AsyncWorkerStatus::kComputing);
  EXPECT_EQ(elastic.live_workers(), 4);
  // The revived slot resumes optimising its frozen coordinates: the elastic
  // arm reaches a strictly better model than the permanently degraded one.
  EXPECT_LT(elastic.duality_gap(), frozen.duality_gap());
  EXPECT_LT(invariant_error(elastic, Formulation::kDual), 2e-3);
}

// --- Straggler immunity -----------------------------------------------------

TEST(AsyncTiming, AdaptiveAsyncReachesTheGapFasterUnderAStraggler) {
  // Adaptive arms, moderate (2x) straggler: its pushes arrive at roughly
  // the auto staleness window, so they land undamped, while the sync master
  // burns its grace deadline every round.  (Under extreme slowdowns the
  // sync deadline effectively excludes the straggler and stays competitive
  // — see the ablation_async bench for the full picture.)
  const auto stall = permanent_stall(0, 2.0);
  const double target = 1e-4;
  constexpr int kMaxRounds = 400;
  // A larger corpus than the fixture's: the win margin scales with how much
  // work each round amortises (on tiny shards the two arms are within
  // noise of each other).
  data::WebspamLikeConfig big;
  big.num_examples = 2048;
  big.num_features = 4096;
  const auto dataset = data::make_webspam_like(big);

  auto async_config = base_config(Formulation::kDual, 4);
  async_config.aggregation = AggregationMode::kAdaptive;
  async_config.faults.scripted.push_back(stall);
  AsyncSolver async_solver(dataset, async_config);
  double async_seconds = 0.0;
  for (int round = 0; round < kMaxRounds; ++round) {
    async_seconds += async_solver.run_epoch().sim_seconds;
    if (async_solver.duality_gap() <= target) break;
  }
  ASSERT_LE(async_solver.duality_gap(), target);

  DistConfig sync_config;
  sync_config.formulation = Formulation::kDual;
  sync_config.num_workers = 4;
  sync_config.aggregation = AggregationMode::kAdaptive;
  sync_config.local_solver.kind = core::SolverKind::kSequential;
  sync_config.lambda = 1e-3;
  sync_config.faults.scripted.push_back(stall);
  DistributedSolver sync_solver(dataset, sync_config);
  double sync_seconds = 0.0;
  for (int round = 0; round < kMaxRounds; ++round) {
    sync_seconds += sync_solver.run_epoch().sim_seconds;
    if (sync_solver.duality_gap() <= target) break;
  }
  ASSERT_LE(sync_solver.duality_gap(), target);

  // The sync master waits out its straggler deadline every round; the async
  // master absorbs pushes from whoever is fast.
  EXPECT_LT(async_seconds, sync_seconds);
}

// --- Checkpoint / resume ----------------------------------------------------

TEST(AsyncCheckpoint, ResumeReplaysBitExactly) {
  auto config = base_config(Formulation::kDual, 4);
  AsyncSolver original(corpus(), config);
  run_rounds(original, 4);
  const auto saved = original.checkpoint();  // rendezvous
  const auto state = original.checkpoint_state();
  EXPECT_EQ(saved.epoch, 4u);
  run_rounds(original, 4);

  AsyncSolver resumed(corpus(), config);
  resumed.restore(saved, state);
  EXPECT_EQ(resumed.current_epoch(), 4);
  EXPECT_EQ(resumed.version(), state.version);
  run_rounds(resumed, 4);

  EXPECT_EQ(original.version(), resumed.version());
  EXPECT_EQ(original.global_shared(), resumed.global_shared());
  EXPECT_EQ(original.global_weights(), resumed.global_weights());
}

TEST(AsyncCheckpoint, ResumeReplaysFaultsAndMembership) {
  auto config = base_config(Formulation::kDual, 4);
  config.faults.scripted.push_back(crash_at(6, 2));
  config.membership.push_back({7, 3, MembershipEvent::Kind::kLeave});
  config.membership.push_back({9, 3, MembershipEvent::Kind::kJoin});

  AsyncSolver original(corpus(), config);
  run_rounds(original, 4);
  const auto saved = original.checkpoint();
  const auto state = original.checkpoint_state();
  run_rounds(original, 6);

  AsyncSolver resumed(corpus(), config);
  resumed.restore(saved, state);
  run_rounds(resumed, 6);

  // The continuation sees the identical fault schedule and membership
  // script — crash at 6, leave at 7, join at 9 — and the identical numbers.
  EXPECT_EQ(count(resumed.events(), ClusterEventKind::kCrash), 1u);
  EXPECT_EQ(count(resumed.events(), ClusterEventKind::kLeave), 1u);
  EXPECT_EQ(count(resumed.events(), ClusterEventKind::kJoin), 1u);
  EXPECT_EQ(original.version(), resumed.version());
  EXPECT_EQ(original.global_shared(), resumed.global_shared());
  EXPECT_EQ(original.global_weights(), resumed.global_weights());
}

// The most workers a header can declare (the u32 at byte 8) must fail as a
// typed error, not as a 100 GB allocation.
TEST(AsyncCheckpoint, SidecarRejectsHostileWorkerCount) {
  AsyncCheckpointState state;
  state.workers.push_back({12, 0, 0, 0.0});
  const auto path =
      (std::filesystem::temp_directory_path() / "tpa_async_hostile.bin")
          .string();
  write_async_state_file(path, state);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t workers = 0xFFFFFFFFu;
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&workers), sizeof(workers));
  }
  EXPECT_THROW(read_async_state_file(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(AsyncCheckpoint, SidecarFileRoundtrips) {
  AsyncCheckpointState state;
  state.round = 7;
  state.version = 23;
  state.seed = 99;
  state.workers.push_back({12, 0, 0, 0.0});
  state.workers.push_back({10, 1, 2, 3.5});
  const auto path =
      (std::filesystem::temp_directory_path() / "tpa_async_state.bin")
          .string();
  write_async_state_file(path, state);
  const auto loaded = read_async_state_file(path);
  EXPECT_EQ(loaded.round, state.round);
  EXPECT_EQ(loaded.version, state.version);
  EXPECT_EQ(loaded.seed, state.seed);
  ASSERT_EQ(loaded.workers.size(), 2u);
  EXPECT_EQ(loaded.workers[1].draws_consumed, 10u);
  EXPECT_EQ(loaded.workers[1].status, 1u);
  EXPECT_EQ(loaded.workers[1].crash_count, 2u);
  EXPECT_DOUBLE_EQ(loaded.workers[1].restart_at, 3.5);

  // A flipped payload byte must not slip past the checksum.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    char byte = 0x7f;
    f.write(&byte, 1);
  }
  EXPECT_THROW(read_async_state_file(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(AsyncCheckpoint, RestoreValidatesItsInputs) {
  auto config = base_config(Formulation::kDual, 4);
  AsyncSolver original(corpus(), config);
  run_rounds(original, 2);
  const auto saved = original.checkpoint();
  const auto state = original.checkpoint_state();

  {  // restoring over rounds already run
    AsyncSolver solver(corpus(), config);
    solver.run_epoch();
    EXPECT_THROW(solver.restore(saved, state), std::logic_error);
  }
  {  // seed mismatch: partition and fault schedule would not replay
    auto other = config;
    other.seed = config.seed + 1;
    AsyncSolver solver(corpus(), other);
    EXPECT_THROW(solver.restore(saved, state), std::invalid_argument);
  }
  {  // model/sidecar pair from different rounds
    auto stale = state;
    stale.round += 1;
    AsyncSolver solver(corpus(), config);
    EXPECT_THROW(solver.restore(saved, stale), std::invalid_argument);
  }
  {  // sidecar worker count from a different cluster shape
    auto wrong = state;
    wrong.workers.pop_back();
    AsyncSolver solver(corpus(), config);
    EXPECT_THROW(solver.restore(saved, wrong), std::invalid_argument);
  }
}

// --- Config validation and names --------------------------------------------

TEST(AsyncConfigValidation, RejectsBadWindowsAndMembership) {
  auto config = base_config(Formulation::kDual, 4);
  config.staleness_window = -1;
  EXPECT_THROW(AsyncSolver(corpus(), config), std::invalid_argument);

  config = base_config(Formulation::kDual, 4);
  config.membership.push_back({0, 1, MembershipEvent::Kind::kLeave});
  EXPECT_THROW(AsyncSolver(corpus(), config), std::invalid_argument);

  config = base_config(Formulation::kDual, 4);
  config.membership.push_back({2, 4, MembershipEvent::Kind::kJoin});
  EXPECT_THROW(AsyncSolver(corpus(), config), std::invalid_argument);

  config = base_config(Formulation::kDual, 0);
  EXPECT_THROW(AsyncSolver(corpus(), config), std::invalid_argument);
}

TEST(AsyncNames, PolicyAndStatusNamesRoundtrip) {
  EXPECT_STREQ(staleness_policy_name(StalenessPolicy::kDamp), "damp");
  EXPECT_STREQ(staleness_policy_name(StalenessPolicy::kReject), "reject");
  EXPECT_EQ(parse_staleness_policy("damp"), StalenessPolicy::kDamp);
  EXPECT_EQ(parse_staleness_policy("reject"), StalenessPolicy::kReject);
  EXPECT_THROW(parse_staleness_policy("barrier"), std::invalid_argument);
  EXPECT_STREQ(async_worker_status_name(AsyncWorkerStatus::kComputing),
               "computing");
  EXPECT_STREQ(async_worker_status_name(AsyncWorkerStatus::kBackoff),
               "backoff");
  EXPECT_STREQ(async_worker_status_name(AsyncWorkerStatus::kDetached),
               "detached");
}

}  // namespace
}  // namespace tpa::cluster
