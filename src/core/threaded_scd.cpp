#include "core/threaded_scd.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace tpa::core {

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
      // The replicated lanes are schedule-independent, so they share as
      // many workers as the host can run at once; the racing policies
      // keep one worker per thread.
      pool_(static_cast<std::size_t>(
          policy == CommitPolicy::kReplicated
              ? pool_dispatch().effective_threads(threads)
              : std::max(1, threads))) {
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

EpochReport ThreadedScdSolver::run_epoch() {
  const util::WallTimer timer;
  const auto order = [this] {
    obs::TraceSpan shuffle("threaded_scd/shuffle");
    return permutation_.next();
  }();

  obs::TraceSpan sweep("threaded_scd/sweep");
  double speedup = 0.0;
  if (policy_ == CommitPolicy::kReplicated) {
    replicated_sweep(*problem_, formulation_, order, state_.weights,
                     state_.shared, replicas_, threads_, merge_every_, &pool_);
    speedup = cost_model_.replicated_speedup(threads_);
  } else {
    // Static partition of the shuffled coordinates across the persistent
    // pool, as the OpenMP parallel-for in the paper's implementation does:
    // the default grain gives each worker one ceil(order / threads) slice,
    // and workers race on the shared vector inside worker_pass (atomic_ref
    // vs wild commits).
    pool_.parallel_for_chunks(
        order.size(), [this, order](std::size_t begin, std::size_t end) {
          // One span per pool-thread slice, on that thread's own track.
          obs::TraceSpan chunk("threaded_scd/chunk", obs::kCurrentThread,
                               static_cast<std::int64_t>(end - begin));
          worker_pass(order.subspan(begin, end - begin));
        });
    speedup = policy_ == CommitPolicy::kAtomicAdd
                  ? cost_model_.atomic_speedup(threads_)
                  : cost_model_.wild_speedup(threads_);
  }

  EpochReport report;
  report.coordinate_updates = order.size();
  report.sim_seconds =
      cost_model_.epoch_seconds_sequential(workload_) / speedup;
  report.wall_seconds = timer.seconds();
  return report;
}

}  // namespace tpa::core
