// Shared-vector replication (DESIGN.md §11): ReplicaSet layout and merge
// semantics, the lane contract of core::replicated_sweep, bit-exactness of
// the merge_every=1 single-worker path against the sequential solver,
// tolerance-bounded convergence equivalence of the multi-worker paths,
// schedule independence under forced pool dispatch, and the factory
// plumbing for the replicated solver kind.
#include "core/replica_set.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/async_scd.hpp"
#include "core/convergence.hpp"
#include "core/cost_model.hpp"
#include "core/round_engine.hpp"
#include "core/seq_scd.hpp"
#include "core/solver_factory.hpp"
#include "core/threaded_scd.hpp"
#include "core/tpa_scd.hpp"
#include "data/generators.hpp"
#include "obs/trace.hpp"
#include "util/aligned.hpp"
#include "util/permutation.hpp"
#include "util/rng.hpp"

namespace tpa::core {
namespace {

const data::Dataset& webspam_small() {
  static const data::Dataset dataset = [] {
    data::WebspamLikeConfig config;
    config.num_examples = 2048;
    config.num_features = 4096;
    return data::make_webspam_like(config);
  }();
  return dataset;
}

/// Restores the process-wide dispatch model on scope exit so a test that
/// forces pooled or serial execution cannot leak into its neighbours.
struct DispatchGuard {
  PoolDispatchModel saved = pool_dispatch();
  ~DispatchGuard() { set_pool_dispatch(saved); }
};

TEST(ReplicaSet, SlotsAreCacheLineAlignedAndDisjoint) {
  ReplicaSet replicas;
  // 100 floats is deliberately not a multiple of a cache line.
  replicas.configure(100, 3);
  EXPECT_EQ(replicas.dim(), 100u);
  EXPECT_EQ(replicas.count(), 3);
  // Stride rounds the slot up to whole 64-byte lines.
  EXPECT_GE(replicas.stride(), replicas.dim());
  EXPECT_EQ(replicas.stride() % (util::kCacheLineBytes / sizeof(float)), 0u);
  const auto base = replicas.base();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(base.data()) %
                util::kCacheLineBytes,
            0u);
  for (int r = 0; r < replicas.count(); ++r) {
    const auto rep = replicas.replica(r);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rep.data()) %
                  util::kCacheLineBytes,
              0u);
    // No slot overlaps the previous one, even through a shared tail line.
    const auto* prev_end =
        (r == 0 ? base.data() : replicas.replica(r - 1).data()) +
        replicas.dim();
    EXPECT_GE(rep.data(), prev_end);
  }
}

TEST(ReplicaSet, ConfigureIsIdempotentForUnchangedShape) {
  ReplicaSet replicas;
  replicas.configure(64, 2);
  std::vector<float> global(64, 1.0F);
  replicas.reset_from(global);
  replicas.replica(0)[5] = 7.0F;
  replicas.configure(64, 2);  // must not wipe the replicas
  EXPECT_EQ(replicas.replica(0)[5], 7.0F);
  replicas.configure(64, 3);  // shape change reallocates
  EXPECT_EQ(replicas.count(), 3);
}

TEST(ReplicaSet, SingleReplicaMergeIsAVerbatimCopy) {
  ReplicaSet replicas;
  replicas.configure(33, 1);
  std::vector<float> global(33, 0.25F);
  replicas.reset_from(global);
  auto rep = replicas.replica(0);
  for (std::size_t i = 0; i < rep.size(); ++i) {
    rep[i] = 0.1F * static_cast<float>(i) + 1e-7F;
  }
  const std::vector<float> expected(rep.begin(), rep.end());
  replicas.merge_into(global);
  // Bit-exact: the single-replica path must bypass the float diff-add,
  // whose w + (r - w) round trip is not the identity.
  EXPECT_EQ(0, std::memcmp(global.data(), expected.data(),
                           expected.size() * sizeof(float)));
}

TEST(ReplicaSet, MergeFoldsDisjointDeltasAndReseeds) {
  ReplicaSet replicas;
  replicas.configure(8, 2);
  std::vector<float> global = {1, 2, 3, 4, 5, 6, 7, 8};
  replicas.reset_from(global);
  // Each replica touches its own half — the contract the solvers maintain
  // between merges.
  replicas.replica(0)[0] += 10.0F;
  replicas.replica(0)[3] += 20.0F;
  replicas.replica(1)[4] += 1.0F;
  replicas.replica(1)[7] -= 2.0F;
  replicas.merge_into(global);
  const std::vector<float> expected = {11, 2, 3, 24, 6, 6, 7, 6};
  EXPECT_EQ(global, expected);
  // Base and replicas are reseeded from the merged vector.
  for (int r = 0; r < 2; ++r) {
    for (std::size_t i = 0; i < global.size(); ++i) {
      EXPECT_EQ(replicas.replica(r)[i], global[i]);
    }
  }
  EXPECT_EQ(replicas.base()[0], 11.0F);
}

// --- fp16 storage (DESIGN.md §16): the same bodies over Half slots --------

std::vector<std::uint16_t> bits_of(std::span<const linalg::Half> x) {
  std::vector<std::uint16_t> out;
  for (const linalg::Half h : x) out.push_back(h.bits);
  return out;
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> out(n);
  for (auto& x : out) x = static_cast<float>(rng.normal());
  return out;
}

TEST(ReplicaSet, Fp16ResetNarrowsOnceIntoEverySlot) {
  ReplicaSet replicas;
  replicas.configure(37, 3, linalg::SharedPrecision::kFp16);
  EXPECT_EQ(replicas.precision(), linalg::SharedPrecision::kFp16);
  EXPECT_EQ(replicas.stride() %
                (util::kCacheLineBytes / sizeof(linalg::Half)),
            0u);
  const auto global = random_floats(37, 11);
  std::vector<linalg::Half> expected(global.size());
  for (std::size_t i = 0; i < global.size(); ++i) {
    expected[i] = linalg::float_to_half(global[i]);
  }
  replicas.replica<linalg::Half>(1)[3] = linalg::float_to_half(9.0F);
  replicas.reset_from(global);
  EXPECT_EQ(bits_of(replicas.base<linalg::Half>()), bits_of(expected));
  for (int r = 0; r < replicas.count(); ++r) {
    EXPECT_EQ(bits_of(replicas.replica<linalg::Half>(r)), bits_of(expected))
        << "replica " << r;
  }
}

TEST(ReplicaSet, Fp16SingleReplicaMergeIsTheExactWidening) {
  ReplicaSet replicas;
  replicas.configure(33, 1, linalg::SharedPrecision::kFp16);
  std::vector<float> global = random_floats(33, 12);
  replicas.reset_from(global);
  auto rep = replicas.replica<linalg::Half>(0);
  const auto values = random_floats(rep.size(), 13);
  for (std::size_t i = 0; i < rep.size(); ++i) {
    rep[i] = linalg::float_to_half(values[i]);
  }
  std::vector<float> expected(rep.size());
  for (std::size_t i = 0; i < rep.size(); ++i) {
    expected[i] = linalg::half_to_float(rep[i]);
  }
  replicas.merge_into(global);
  EXPECT_EQ(global, expected);
}

TEST(ReplicaSet, Fp16MergeFoldsReplicasInReplicaOrder) {
  constexpr std::size_t kDim = 64;
  constexpr int kCount = 3;
  ReplicaSet replicas;
  replicas.configure(kDim, kCount, linalg::SharedPrecision::kFp16);
  std::vector<float> global = random_floats(kDim, 14);
  replicas.reset_from(global);
  // Every replica moves every entry, so the fold order is observable.
  for (int r = 0; r < kCount; ++r) {
    const auto values = random_floats(kDim, 15 + static_cast<std::uint64_t>(r));
    auto rep = replicas.replica<linalg::Half>(r);
    for (std::size_t i = 0; i < kDim; ++i) {
      rep[i] = linalg::float_to_half(values[i]);
    }
  }
  // w[i] = float(w[i] + (double(r[i]) − double(base[i]))), replica by
  // replica: the ReplicaSet merge contract, spelled out.
  const auto fold = [&](const std::vector<int>& order) {
    std::vector<float> w = global;
    const auto base = replicas.base<linalg::Half>();
    for (const int r : order) {
      const auto rep = replicas.replica<linalg::Half>(r);
      for (std::size_t i = 0; i < kDim; ++i) {
        w[i] = static_cast<float>(
            w[i] + (static_cast<double>(linalg::half_to_float(rep[i])) -
                    static_cast<double>(linalg::half_to_float(base[i]))));
      }
    }
    return w;
  };
  const auto expected = fold({0, 1, 2});
  ASSERT_NE(expected, fold({2, 1, 0}));  // the data can tell the orders apart
  replicas.merge_into(global);
  EXPECT_EQ(global, expected);
  // The merge reseeds every slot from the narrowed result.
  for (int r = 0; r < kCount; ++r) {
    EXPECT_EQ(bits_of(replicas.replica<linalg::Half>(r)),
              bits_of(replicas.base<linalg::Half>()));
  }
}

TEST(AsyncEngine, RunEpochRejectsReplicatedPolicy) {
  AsyncEngine engine(4, CommitPolicy::kReplicated);
  std::vector<sparse::Index> order = {0};
  std::vector<float> shared(4, 0.0F);
  EXPECT_THROW(
      engine.run_epoch(
          order, [](sparse::Index, std::span<const float>) { return 0.0; },
          [&](sparse::Index) {
            return sparse::SparseVectorView{};
          },
          [](sparse::Index, double) {}, shared),
      std::logic_error);
}

/// Expects `fn` to throw std::invalid_argument whose message names
/// merge_every.
template <typename Fn>
void expect_rejects_merge_every(const Fn& fn) {
  try {
    fn();
    ADD_FAILURE() << "a negative merge_every was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("merge_every"), std::string::npos)
        << e.what();
  }
}

TEST(ReplicatedSweep, RejectsNegativeMergeEveryAndNonPositiveLanes) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  const std::vector<std::uint32_t> order = {0, 1, 2};
  std::vector<float> weights(problem.num_coordinates(Formulation::kDual));
  std::vector<float> shared(problem.shared_dim(Formulation::kDual));
  ReplicaSet replicas;
  expect_rejects_merge_every([&] {
    replicated_sweep(problem, Formulation::kDual, order, weights, shared,
                     replicas, 2, -1);
  });
  for (const int lanes : {0, -1}) {
    EXPECT_THROW(replicated_sweep(problem, Formulation::kDual, order, weights,
                                  shared, replicas, lanes, 0),
                 std::invalid_argument)
        << lanes;
  }
  // Nothing ran: the weights are untouched.
  EXPECT_EQ(weights, std::vector<float>(weights.size(), 0.0F));
}

// merge_every counts updates per worker between merges (0 = automatic); a
// negative count means nothing and is refused by name wherever it enters —
// the solver config, including for kinds that ignore the interval, and the
// two solver constructors that take one.
TEST(ReplicatedSweep, NegativeMergeEveryIsRejectedWhereverItEnters) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  for (const auto kind :
       {SolverKind::kThreadedReplicated, SolverKind::kSequential}) {
    SolverConfig config;
    config.kind = kind;
    config.threads = 2;
    config.merge_every = -4;
    expect_rejects_merge_every([&] { (void)make_solver(problem, config); });
  }
  for (const auto policy :
       {CommitPolicy::kReplicated, CommitPolicy::kAtomicAdd}) {
    expect_rejects_merge_every([&] {
      ThreadedScdSolver(problem, Formulation::kDual, 2, policy, 7,
                        /*cost_model=*/{}, /*merge_every=*/-1);
    });
  }
  TpaScdOptions tpa_options;
  tpa_options.merge_every = -1;
  expect_rejects_merge_every(
      [&] { TpaScdSolver(problem, Formulation::kDual, 7, tpa_options); });
}

// The lane contract every replicated path shares: lane t owns order[t],
// order[t + W], order[t + 2W], …; a round advances each lane by m of its
// coordinates against its own replica, then the replicas merge in replica
// order.  A step that always moves 1.0 along rows whose entry 0 is 1 makes
// the contract visible: entry 0 of the replica a lane reads counts every
// update merged before the round plus the lane's own earlier updates in it.
// The inline schedule runs the lanes of a round in replica order, so the
// call sequence itself is fixed too.  Entry 1 gets values of mixed
// magnitude, whose float sum tells the merge orders apart.
TEST(ReplicatedSweep, LaneTOwnsEveryWthCoordinateInRoundsOfM) {
  // 262 rows: θ = 1 at W = 3, m = 2 (staleness 4 within 262/64), and a
  // ragged last round (lane 0 owns 88 rows, lanes 1 and 2 own 87).
  constexpr std::uint32_t kRows = 262;
  constexpr int kLanes = 3;
  constexpr int kMergeEvery = 2;
  std::vector<sparse::Offset> row_offsets(kRows + 1);
  std::vector<sparse::Index> columns;
  std::vector<float> values;
  util::Rng rng(21);
  for (std::uint32_t n = 0; n < kRows; ++n) {
    row_offsets[n + 1] = 2 * (n + 1);
    columns.insert(columns.end(), {0, 1});
    values.push_back(1.0F);
    values.push_back(static_cast<float>(
        rng.normal() * std::ldexp(1.0, static_cast<int>(n % 24))));
  }
  sparse::CsrMatrix matrix(kRows, 2, std::move(row_offsets), columns,
                           values);
  const data::Dataset dataset("lanes", std::move(matrix),
                              std::vector<float>(kRows, 1.0F));
  const RidgeProblem problem(dataset, 1e-3);
  ASSERT_EQ(replica_damping(kRows, kLanes, kMergeEvery), 1.0);

  util::EpochPermutation permutation(kRows, util::Rng(5));
  const auto order = permutation.next();
  std::vector<float> weights(kRows, 0.0F);
  std::vector<float> shared(2, 0.0F);
  ReplicaSet replicas;
  struct Call {
    std::uint32_t j;
    const void* replica;
    float seen;
  };
  std::vector<Call> calls;
  replicated_sweep(problem, Formulation::kDual, order, weights, shared,
                   replicas, kLanes, kMergeEvery, /*pool=*/nullptr,
                   [&](sparse::Index j, auto replica, double) {
                     calls.push_back({j, replica.data(),
                                      linalg::to_float(replica[0])});
                     return 1.0;
                   });

  std::size_t call = 0;
  for (std::size_t first = 0; first * kLanes < kRows;
       first += kMergeEvery) {
    const auto merged = static_cast<float>(first * kLanes);
    for (int t = 0; t < kLanes; ++t) {
      for (std::size_t k = first; k < first + kMergeEvery; ++k) {
        const std::size_t p = t + k * kLanes;
        if (p >= kRows) break;
        ASSERT_LT(call, calls.size());
        SCOPED_TRACE("round " + std::to_string(first / kMergeEvery) +
                     ", lane " + std::to_string(t) + ", k " +
                     std::to_string(k));
        EXPECT_EQ(calls[call].j, order[p]);
        EXPECT_EQ(calls[call].replica, replicas.replica(t).data());
        EXPECT_EQ(calls[call].seen,
                  merged + static_cast<float>(k - first));
        ++call;
      }
    }
  }
  EXPECT_EQ(call, calls.size());
  EXPECT_EQ(shared[0], static_cast<float>(kRows));
  EXPECT_EQ(weights, std::vector<float>(kRows, 1.0F));

  // Entry 1, spelled out: each lane scatters its round into a copy of the
  // merged value, and the copies fold into it in `merge_order`
  // (ReplicaSet's w + (replica − base) in double, stored as float).
  const auto fold = [&](const std::vector<int>& merge_order) {
    float merged = 0.0F;
    for (std::size_t first = 0; first * kLanes < kRows;
         first += kMergeEvery) {
      std::vector<float> lane(kLanes, merged);
      for (int t = 0; t < kLanes; ++t) {
        for (std::size_t k = first; k < first + kMergeEvery; ++k) {
          const std::size_t p = t + k * kLanes;
          if (p >= kRows) break;
          lane[t] = static_cast<float>(static_cast<double>(lane[t]) +
                                       values[2 * order[p] + 1]);
        }
      }
      const float base = merged;
      for (const int t : merge_order) {
        merged = static_cast<float>(
            merged + (static_cast<double>(lane[t]) - base));
      }
    }
    return merged;
  };
  ASSERT_NE(fold({0, 1, 2}), fold({2, 1, 0}));  // the orders differ
  EXPECT_EQ(shared[1], fold({0, 1, 2}));
}

// merge_every=1 with a single worker reproduces the sequential solver
// *bit-exactly*: one replica, verbatim-copy merges, and the identical
// kernel calls in between.
TEST(ReplicatedScd, SingleThreadMergeEveryOneIsBitExactVsSequential) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  SeqScdSolver seq(problem, Formulation::kDual, 7);
  ThreadedScdSolver threaded(problem, Formulation::kDual, 1,
                             CommitPolicy::kReplicated, 7, /*cost_model=*/{},
                             /*merge_every=*/1);
  for (int epoch = 0; epoch < 3; ++epoch) {
    seq.run_epoch();
    threaded.run_epoch();
  }
  EXPECT_EQ(seq.state().weights, threaded.state().weights);
  EXPECT_EQ(seq.state().shared, threaded.state().shared);
}

// The automatic merge interval (merge_every=0) changes staleness, not
// correctness: a single worker still owns every coordinate, so the
// trajectory stays bit-exact sequential regardless of the interval.
TEST(ReplicatedScd, SingleThreadAutoIntervalStaysBitExact) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  SeqScdSolver seq(problem, Formulation::kDual, 7);
  ThreadedScdSolver threaded(problem, Formulation::kDual, 1,
                             CommitPolicy::kReplicated, 7);
  for (int epoch = 0; epoch < 2; ++epoch) {
    seq.run_epoch();
    threaded.run_epoch();
  }
  EXPECT_EQ(seq.state().weights, threaded.state().weights);
  EXPECT_EQ(seq.state().shared, threaded.state().shared);
}

// Multi-worker replicated training reads stale replicas between merges, so
// it cannot be bit-exact — but it must stay convergence-equivalent to the
// atomic path: same order of magnitude gap at every evaluated epoch, and
// well-converged at the end (tolerance documented in DESIGN.md §11).  The
// atomic reference is the deterministic A-SCD model: the real-thread atomic
// solver's late-epoch gap is fp32 rounding noise from whichever interleaving
// the OS picked, so it cannot anchor a band (it keeps its own coverage in
// test_solvers).
TEST(ReplicatedScd, MultiThreadGapTraceMatchesAtomicWithinTolerance) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  AScdSolver atomic(problem, Formulation::kDual, 4, 7);
  ThreadedScdSolver replicated(problem, Formulation::kDual, 4,
                               CommitPolicy::kReplicated, 7);
  for (int epoch = 0; epoch < 8; ++epoch) {
    atomic.run_epoch();
    replicated.run_epoch();
    const double atomic_gap = atomic.duality_gap(problem);
    const double replicated_gap = replicated.duality_gap(problem);
    EXPECT_LT(replicated_gap, atomic_gap * 10.0) << "epoch " << epoch;
    EXPECT_GT(replicated_gap, atomic_gap / 10.0) << "epoch " << epoch;
  }
  EXPECT_LT(replicated.duality_gap(problem), 1e-4);
}

// The replicated kind's 16-lane default converges too, and its merges lose
// no update.
TEST(ReplicatedScd, AsyncLaneVariantConverges) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  ThreadedScdSolver solver(problem, Formulation::kDual, 16,
                           CommitPolicy::kReplicated, 7);
  for (int epoch = 0; epoch < 10; ++epoch) solver.run_epoch();
  EXPECT_LT(solver.duality_gap(problem), 1e-4);
  // Merges never lose updates: the shared vector is still A^T alpha.
  EXPECT_LT(solver.state().shared_inconsistency(problem), 1e-4);
}

// Replicated execution is schedule-independent: coordinates are partitioned
// disjointly and reads see only merge-boundary state, so running the rounds
// on the pool or inline on the caller must give identical bits.  This is
// what lets the cost model pick the execution mode freely.
TEST(ReplicatedScd, PooledAndInlineExecutionAreBitIdentical) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  const DispatchGuard guard;

  PoolDispatchModel serial_model;
  serial_model.hardware_threads = 1;  // pool can never win: inline rounds
  set_pool_dispatch(serial_model);
  ThreadedScdSolver inline_solver(problem, Formulation::kDual, 4,
                                  CommitPolicy::kReplicated, 7);
  for (int epoch = 0; epoch < 3; ++epoch) inline_solver.run_epoch();

  PoolDispatchModel pooled_model;
  pooled_model.hardware_threads = 8;  // pool always wins: pooled rounds
  pooled_model.dispatch_seconds = 0.0;
  pooled_model.per_chunk_seconds = 0.0;
  set_pool_dispatch(pooled_model);
  ThreadedScdSolver pooled_solver(problem, Formulation::kDual, 4,
                                  CommitPolicy::kReplicated, 7);
  for (int epoch = 0; epoch < 3; ++epoch) pooled_solver.run_epoch();

  EXPECT_EQ(inline_solver.state().weights, pooled_solver.state().weights);
  EXPECT_EQ(inline_solver.state().shared, pooled_solver.state().shared);
}

// The lane count fixes the trajectory; the pool only runs it.  With two
// hardware threads, 16 lanes share a two-worker pool — never 16 OS threads —
// and the pooled epoch equals the inline one bit for bit.
TEST(ReplicatedScd, PoolIsSizedToTheHostNotTheLanes) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  const DispatchGuard guard;

  PoolDispatchModel serial_model;
  serial_model.hardware_threads = 1;
  set_pool_dispatch(serial_model);
  ThreadedScdSolver inline_solver(problem, Formulation::kDual, 16,
                                  CommitPolicy::kReplicated, 7);
  inline_solver.run_epoch();

  PoolDispatchModel two_cores;
  two_cores.hardware_threads = 2;  // pooled, on at most two workers
  two_cores.dispatch_seconds = 0.0;
  two_cores.per_chunk_seconds = 0.0;
  set_pool_dispatch(two_cores);
  ThreadedScdSolver pooled_solver(problem, Formulation::kDual, 16,
                                  CommitPolicy::kReplicated, 7);
  const bool was_tracing = obs::trace_enabled();
  obs::reset_trace();
  obs::set_trace_enabled(true);
  pooled_solver.run_epoch();
  obs::set_trace_enabled(was_tracing);
  std::set<std::int32_t> threads;
  for (const auto& record : obs::trace_records()) {
    if (record.name == "threaded_scd/round") threads.insert(record.track);
  }
  EXPECT_GE(threads.size(), 1u);
  EXPECT_LE(threads.size(), 2u);
  EXPECT_EQ(inline_solver.state().weights, pooled_solver.state().weights);
  EXPECT_EQ(inline_solver.state().shared, pooled_solver.state().shared);
}

TEST(ReplicatedScd, DeterministicAcrossIdenticalRuns) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  ThreadedScdSolver a(problem, Formulation::kDual, 4,
                      CommitPolicy::kReplicated, 42);
  ThreadedScdSolver b(problem, Formulation::kDual, 4,
                      CommitPolicy::kReplicated, 42);
  for (int epoch = 0; epoch < 3; ++epoch) {
    a.run_epoch();
    b.run_epoch();
  }
  EXPECT_EQ(a.state().weights, b.state().weights);
}

// The TPA-SCD gpusim path batches its block write-backs through the same
// delta-merge primitive when merge_every > 0.  With a small lane window and
// merge_every=1 the concurrent staleness stays within the budget (damping
// θ = 1), so convergence must stay in the same regime as the per-update
// atomic write-back at the same window.
TEST(TpaScd, BatchedWriteBackMatchesAtomicConvergence) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  TpaScdOptions atomic_options;
  atomic_options.device = gpusim::DeviceSpec::quadro_m4000();
  atomic_options.async_window_override = 4;
  TpaScdSolver atomic(problem, Formulation::kDual, 7, atomic_options);
  TpaScdOptions batched_options = atomic_options;
  batched_options.merge_every = 1;
  TpaScdSolver batched(problem, Formulation::kDual, 7, batched_options);
  for (int epoch = 0; epoch < 6; ++epoch) {
    atomic.run_epoch();
    batched.run_epoch();
  }
  const double atomic_gap = atomic.duality_gap(problem);
  const double batched_gap = batched.duality_gap(problem);
  EXPECT_LT(batched_gap, atomic_gap * 10.0);
  EXPECT_GT(batched_gap, atomic_gap / 10.0);
}

// At the M4000's native window (2×13 lanes) with a coarse merge interval the
// concurrent staleness blows past the budget; replica_damping must keep the
// batched path stable (bounded, still making progress) instead of diverging.
TEST(TpaScd, BatchedWriteBackStaysStableAtNativeWindow) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  TpaScdOptions options;
  options.device = gpusim::DeviceSpec::quadro_m4000();
  options.merge_every = 64;
  TpaScdSolver batched(problem, Formulation::kDual, 7, options);
  const double initial_gap = batched.duality_gap(problem);
  for (int epoch = 0; epoch < 6; ++epoch) batched.run_epoch();
  const double final_gap = batched.duality_gap(problem);
  EXPECT_TRUE(std::isfinite(final_gap));
  EXPECT_LT(final_gap, initial_gap);
}

TEST(SolverFactory, BuildsReplicatedKindsWithMergeEvery) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  SolverConfig config;
  config.kind = SolverKind::kThreadedReplicated;
  config.threads = 4;
  config.merge_every = 16;
  const auto solver = make_solver(problem, config);
  ASSERT_NE(solver, nullptr);
  EXPECT_NE(solver->name().find("Replicated"), std::string::npos);
  solver->run_epoch();  // must run with the configured interval
  EXPECT_EQ(parse_solver_kind("rep-threads"),
            SolverKind::kThreadedReplicated);
  // One replicated kind: "rep" named a second body of the same sweep.
  EXPECT_THROW(parse_solver_kind("rep"), std::invalid_argument);
}

}  // namespace
}  // namespace tpa::core
