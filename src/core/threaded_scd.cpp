#include "core/threaded_scd.hpp"

#include <algorithm>
#include <stdexcept>

#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace tpa::core {
namespace {

// The body of the sequential solver's sweep, against one worker's private
// replica stored as T (float, or linalg::Half under fp16 storage, whose
// gathers widen exactly and scatters narrow with RNE — DESIGN.md §16):
// plain loads and in-order plain stores, no atomics.  Coordinate slices are
// disjoint, so weights[j] has exactly one writer.  The exact coordinate step
// is under-relaxed by `damping` (1.0 within the safe staleness budget, where
// the multiply is exact and this is the sequential body verbatim); weights
// and replica scale together, preserving the shared-vector invariant at
// any θ.
template <typename T>
void replica_pass(const RidgeProblem& problem, Formulation f,
                  std::span<const std::uint32_t> coords,
                  std::span<float> weights, std::span<T> replica,
                  double damping) {
  for (const auto j : coords) {
    const double step =
        damping * problem.coordinate_delta(f, j, std::span<const T>(replica),
                                           weights[j]);
    weights[j] = static_cast<float>(weights[j] + step);
    linalg::sparse_axpy(step, problem.coordinate_vector(f, j), replica);
  }
}

}  // namespace

void replicated_sweep(const RidgeProblem& problem, Formulation f,
                      std::span<const std::uint32_t> order,
                      std::span<float> weights, std::span<float> shared,
                      ReplicaSet& replicas, util::ThreadPool& pool,
                      int threads, int merge_every) {
  // Replica storage follows the process-wide precision mode, read once per
  // sweep here: fp16 halves the bytes every round touches while weights,
  // merges and objectives stay in full precision.
  const linalg::SharedPrecision precision = linalg::shared_precision();
  replicas.configure(shared.size(), threads, precision);
  // Reseed every call: the caller may overwrite `shared` between sweeps.
  replicas.reset_from(shared);

  const int interval =
      merge_every > 0
          ? merge_every
          : replica_auto_interval(problem.dataset().nnz(),
                                  problem.num_coordinates(f), shared.size(),
                                  threads);
  const std::size_t n = order.size();
  const std::size_t tcount = static_cast<std::size_t>(threads);
  const std::size_t slice = (n + tcount - 1) / tcount;
  // Staleness — and therefore the damping θ — is set by the updates a round
  // actually performs, which a slice shorter than the interval caps.
  const int effective_interval = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(interval), std::max<std::size_t>(1, slice)));
  const double damping =
      replica_damping(problem.num_coordinates(f), threads, effective_interval);
  // Replicated execution is schedule-independent (each worker reads and
  // writes only its own replica between barriers), so running the slices
  // inline on the calling thread is bit-identical to pooled execution —
  // the cost model just picks whichever is predicted faster on this host.
  const bool pooled =
      pool.size() > 1 &&
      pool_dispatch().use_pool(2 * problem.dataset().nnz(), threads);

  for (std::size_t offset = 0; offset < slice;
       offset += static_cast<std::size_t>(interval)) {
    // Round: every worker advances through up to `interval` coordinates of
    // its slice against its replica, then all replicas merge at the barrier.
    const auto run_round = [&](std::size_t t) {
      const std::size_t slice_end = std::min((t + 1) * slice, n);
      const std::size_t begin = std::min(t * slice + offset, slice_end);
      const std::size_t end =
          std::min(begin + static_cast<std::size_t>(interval), slice_end);
      if (begin >= end) return;
      obs::TraceSpan chunk("threaded_scd/round", obs::kCurrentThread,
                           static_cast<std::int64_t>(end - begin));
      const auto coords = order.subspan(begin, end - begin);
      const int r = static_cast<int>(t);
      if (precision == linalg::SharedPrecision::kFp16) {
        replica_pass(problem, f, coords, weights,
                     replicas.replica<linalg::Half>(r), damping);
      } else {
        replica_pass(problem, f, coords, weights, replicas.replica<float>(r),
                     damping);
      }
    };
    if (pooled) {
      pool.parallel_for(tcount, run_round, /*grain=*/1);
    } else {
      for (std::size_t t = 0; t < tcount; ++t) run_round(t);
    }
    replicas.merge_into(shared);
  }
}

ThreadedScdSolver::ThreadedScdSolver(const RidgeProblem& problem,
                                     Formulation f, int threads,
                                     CommitPolicy policy, std::uint64_t seed,
                                     CpuCostModel cost_model)
    : problem_(&problem),
      formulation_(f),
      threads_(threads),
      policy_(policy),
      state_(ModelState::zeros(problem, f)),
      permutation_(problem.num_coordinates(f), util::Rng(seed)),
      cost_model_(cost_model),
      workload_(TimingWorkload::for_dataset(problem.dataset(), f)),
      pool_(static_cast<std::size_t>(std::max(1, threads))) {
  if (threads <= 0) {
    throw std::invalid_argument("ThreadedScdSolver: threads must be positive");
  }
  const char* base = policy == CommitPolicy::kAtomicAdd ? "A-SCD/threads"
                     : policy == CommitPolicy::kLastWriterWins
                         ? "PASSCoDe-Wild/threads"
                         : "Replicated-SCD/threads";
  name_ = std::string(base) + " (" + std::to_string(threads) + ")";
}

void ThreadedScdSolver::worker_pass(std::span<const std::uint32_t> coords) {
  auto shared = std::span<float>(state_.shared);
  for (const auto j : coords) {
    // The read phase sees whatever mixture of committed updates is currently
    // in memory — genuine asynchrony.
    const double delta = problem_->coordinate_delta(formulation_, j, shared,
                                                    state_.weights[j]);
    state_.weights[j] = static_cast<float>(state_.weights[j] + delta);
    const auto vec = problem_->coordinate_vector(formulation_, j);
    if (policy_ == CommitPolicy::kAtomicAdd) {
      for (std::size_t k = 0; k < vec.nnz(); ++k) {
        std::atomic_ref<float> cell(shared[vec.indices[k]]);
        cell.fetch_add(static_cast<float>(delta * vec.values[k]),
                       std::memory_order_relaxed);
      }
    } else {
      for (std::size_t k = 0; k < vec.nnz(); ++k) {
        // Deliberately non-atomic: racing writes may be lost ("wild").
        shared[vec.indices[k]] +=
            static_cast<float>(delta * vec.values[k]);
      }
    }
  }
}

EpochReport ThreadedScdSolver::run_epoch_replicated(
    std::span<const std::uint32_t> order) {
  replicated_sweep(*problem_, formulation_, order, state_.weights,
                   state_.shared, replicas_, pool_, threads_, merge_every_);
  const std::size_t n = order.size();

  EpochReport report;
  report.coordinate_updates = n;
  report.sim_seconds = cost_model_.epoch_seconds_sequential(workload_) /
                       cost_model_.replicated_speedup(threads_);
  return report;
}

EpochReport ThreadedScdSolver::run_epoch() {
  const util::WallTimer timer;
  const auto order = [this] {
    obs::TraceSpan shuffle("threaded_scd/shuffle");
    return permutation_.next();
  }();

  if (policy_ == CommitPolicy::kReplicated) {
    obs::TraceSpan sweep("threaded_scd/sweep");
    EpochReport report = run_epoch_replicated(order);
    report.wall_seconds = timer.seconds();
    return report;
  }

  // Static partition of the shuffled coordinates across the persistent pool,
  // as the OpenMP parallel-for in the paper's implementation does.  The
  // default grain is ceil(order / threads) — the same per-thread slices the
  // old spawn-per-epoch code built — and workers race on the shared vector
  // inside worker_pass exactly as before (atomic_ref vs wild commits).
  obs::TraceSpan sweep("threaded_scd/sweep");
  pool_.parallel_for_chunks(
      order.size(), [this, order](std::size_t begin, std::size_t end) {
        // One span per pool-thread slice, on that thread's own track.
        obs::TraceSpan chunk("threaded_scd/chunk",
                             obs::kCurrentThread,
                             static_cast<std::int64_t>(end - begin));
        worker_pass(order.subspan(begin, end - begin));
      });

  EpochReport report;
  report.coordinate_updates = order.size();
  const double speedup = policy_ == CommitPolicy::kAtomicAdd
                             ? cost_model_.atomic_speedup(threads_)
                             : cost_model_.wild_speedup(threads_);
  report.sim_seconds =
      cost_model_.epoch_seconds_sequential(workload_) / speedup;
  report.wall_seconds = timer.seconds();
  return report;
}

}  // namespace tpa::core
