// Real-thread asynchronous SCD: the paper's actual OpenMP-style CPU
// implementation, here on std::thread.  Threads race on the shared vector
// as A-SCD does, committing with C++20 std::atomic_ref fetch_add.  There is
// no real-thread PASSCoDe-Wild: its unsynchronised read-modify-write on
// shared floats would be a data race, so undefined behaviour in C++; the
// deterministic AsyncEngine models its lost updates instead (DESIGN.md §2).
//
// The kReplicated policy removes the shared-vector contention entirely: its
// sweep is replicated_sweep, SySCD's per-worker replicas (replica_set.hpp),
// merged every merge_every updates per lane (fixed at construction).  Lanes
// own disjoint coordinates and read only their replica, so the result is
// independent of the physical schedule: pooled and inline execution are
// bit-identical, and small problems skip the pool entirely (DESIGN.md §11).
//
// On genuinely parallel hardware the atomic policy exhibits the paper's
// staleness natively; on the single-core CI machine races are rare and
// results are near-sequential, which is why the deterministic AsyncEngine
// solvers are the default for experiments (DESIGN.md §2).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>

#include "core/cost_model.hpp"
#include "core/replica_set.hpp"
#include "core/round_engine.hpp"
#include "core/solver.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace tpa::core {

/// One replicated (SySCD-style) sweep of `order` against (weights, shared),
/// the body of every replicated path: ThreadedScdSolver's kReplicated
/// epoch, TPA-SCD's batched write-back and the threaded streamed sweep.
///   * Lane t of `lanes` owns order[t], order[t + lanes], … and scatters
///     into its own replica with plain stores.
///   * A round advances every lane by `merge_every` of its coordinates (0 =
///     replica_auto_interval), then merges the replicas into `shared` in
///     replica order.
///   * Every step is under-relaxed by replica_damping over min(interval,
///     ceil(n / lanes)) updates per lane; θ = 1 within the safe budget.
/// `step(j, replica, weight_j)` is coordinate j's exact update from a
/// replica stored as float or linalg::Half (DESIGN.md §16); TPA-SCD passes
/// its block reduce.  Lanes touch only their own replica and weights between
/// merges, so a non-null `pool` runs a round's lanes when
/// core::pool_dispatch() predicts a win and the calling thread runs them
/// otherwise, bit-identically.  `replicas` is caller-owned scratch that
/// persists across calls; `weights` is indexed by `problem`-local ids.
/// Throws std::invalid_argument on non-positive lanes or negative
/// merge_every.
template <typename Step>
void replicated_sweep(const RidgeProblem& problem, Formulation f,
                      std::span<const std::uint32_t> order,
                      std::span<float> weights, std::span<float> shared,
                      ReplicaSet& replicas, int lanes, int merge_every,
                      util::ThreadPool* pool, const Step& step) {
  if (lanes <= 0) {
    throw std::invalid_argument("replicated_sweep: lanes must be positive");
  }
  const auto lane_count = static_cast<std::size_t>(lanes);
  const std::size_t per_lane = (order.size() + lane_count - 1) / lane_count;
  // Staleness — and therefore θ — is set by the updates a round actually
  // performs, which a lane shorter than the interval caps.
  const std::size_t interval = std::min<std::size_t>(
      checked_merge_every(merge_every, "replicated_sweep") > 0
          ? merge_every
          : replica_auto_interval(problem.dataset().nnz(),
                                  problem.num_coordinates(f), shared.size(),
                                  lanes),
      std::max<std::size_t>(1, per_lane));
  const double damping = replica_damping(problem.num_coordinates(f), lanes,
                                         static_cast<int>(interval));
  const bool pooled =
      pool != nullptr && pool->size() > 1 &&
      pool_dispatch().use_pool(2 * problem.dataset().nnz(), lanes);
  // Replica storage follows the process-wide precision mode, read once per
  // sweep here.  Reseed every call: the caller may overwrite `shared`.
  const linalg::SharedPrecision precision = linalg::shared_precision();
  replicas.configure(shared.size(), lanes, precision);
  replicas.reset_from(shared);

  // Positions [begin, end) in steps of `lanes` against one replica stored as
  // T.  weights[j] has exactly one writer, and weight and replica move by
  // the same damped step, preserving the shared-vector invariant at any θ
  // (at θ = 1 this is the sequential body verbatim).
  const auto lane_pass = [&]<typename T>(std::span<T> replica,
                                         std::size_t begin, std::size_t end) {
    for (std::size_t p = begin; p < end; p += lane_count) {
      const auto j = order[p];
      const double delta =
          damping * step(j, std::span<const T>(replica),
                         static_cast<double>(weights[j]));
      weights[j] = static_cast<float>(weights[j] + delta);
      linalg::sparse_axpy(delta, problem.coordinate_vector_unpadded(f, j),
                          replica);
    }
  };
  for (std::size_t first = 0; first < per_lane; first += interval) {
    const std::size_t end =
        std::min(order.size(), (first + interval) * lane_count);
    const auto run_lane = [&](std::size_t t) {
      const std::size_t begin = first * lane_count + t;
      if (begin >= end) return;
      const std::size_t updates = (end - begin + lane_count - 1) / lane_count;
      obs::TraceSpan span("threaded_scd/round", obs::kCurrentThread,
                          static_cast<std::int64_t>(updates));
      if (precision == linalg::SharedPrecision::kFp16) {
        lane_pass(replicas.replica<linalg::Half>(static_cast<int>(t)), begin,
                  end);
      } else {
        lane_pass(replicas.replica<float>(static_cast<int>(t)), begin, end);
      }
    };
    if (pooled) {
      pool->parallel_for(lane_count, run_lane, /*grain=*/1);
    } else {
      for (std::size_t t = 0; t < lane_count; ++t) run_lane(t);
    }
    replicas.merge_into(shared);
  }
}

/// replicated_sweep with the exact step, RidgeProblem::coordinate_delta.
inline void replicated_sweep(const RidgeProblem& problem, Formulation f,
                             std::span<const std::uint32_t> order,
                             std::span<float> weights,
                             std::span<float> shared, ReplicaSet& replicas,
                             int lanes, int merge_every,
                             util::ThreadPool* pool = nullptr) {
  replicated_sweep(problem, f, order, weights, shared, replicas, lanes,
                   merge_every, pool,
                   [&](sparse::Index j, auto replica, double weight_j) {
                     return problem.coordinate_delta(f, j, replica, weight_j);
                   });
}

class ThreadedScdSolver final : public Solver {
 public:
  /// The replicated policy runs `threads` lanes on a pool of
  /// pool_dispatch().effective_threads(threads) workers, merging every
  /// `merge_every` updates per lane (0 = automatic,
  /// core::replica_auto_interval; intervals beyond the safe staleness
  /// budget run under-relaxed by core::replica_damping rather than
  /// diverging).  Atomic starts `threads` workers and ignores the interval.
  /// Throws std::invalid_argument on non-positive `threads`, negative
  /// `merge_every` or the kLastWriterWins policy.
  ThreadedScdSolver(const RidgeProblem& problem, Formulation f, int threads,
                    CommitPolicy policy, std::uint64_t seed,
                    CpuCostModel cost_model = {}, int merge_every = 0);

 private:
  double sweep(std::span<const std::uint32_t> order) override;
  void worker_pass(std::span<const std::uint32_t> coords);

  int threads_;
  CommitPolicy policy_;
  int merge_every_;
  CpuCostModel cost_model_;
  TimingWorkload workload_;
  ReplicaSet replicas_;  // storage persists across epochs (kReplicated only)
  // Persistent workers reused across epochs: each sweep schedules the same
  // static coordinate partition onto this pool instead of spawning (and
  // joining) `threads_` fresh std::threads every epoch.
  util::ThreadPool pool_;
};

}  // namespace tpa::core
