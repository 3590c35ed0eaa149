#include "core/threaded_scd.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace tpa::core {
namespace {

std::string threaded_name(CommitPolicy policy, int threads) {
  const char* base = policy == CommitPolicy::kAtomicAdd
                         ? "A-SCD/threads"
                         : "Replicated-SCD/threads";
  return std::string(base) + " (" + std::to_string(threads) + ")";
}

}  // namespace

ThreadedScdSolver::ThreadedScdSolver(const RidgeProblem& problem,
                                     Formulation f, int threads,
                                     CommitPolicy policy, std::uint64_t seed,
                                     CpuCostModel cost_model, int merge_every)
    : Solver(problem, f, seed, threaded_name(policy, threads),
             "threaded_scd/shuffle", "threaded_scd/sweep"),
      threads_(threads),
      policy_(policy),
      merge_every_(checked_merge_every(merge_every, "ThreadedScdSolver")),
      cost_model_(cost_model),
      workload_(TimingWorkload::for_dataset(problem.dataset(), f)),
      // The replicated lanes are schedule-independent, so they share as
      // many workers as the host can run at once; the atomic race keeps
      // one worker per thread.
      pool_(static_cast<std::size_t>(
          policy == CommitPolicy::kReplicated
              ? pool_dispatch().effective_threads(threads)
              : std::max(1, threads))) {
  if (threads <= 0) {
    throw std::invalid_argument("ThreadedScdSolver: threads must be positive");
  }
  if (policy == CommitPolicy::kLastWriterWins) {
    throw std::invalid_argument(
        "ThreadedScdSolver: last-writer-wins on real threads is a data race");
  }
}

void ThreadedScdSolver::worker_pass(std::span<const std::uint32_t> coords) {
  auto& state = mutable_state();
  auto shared = std::span<float>(state.shared);
  for (const auto j : coords) {
    // The read phase sees whatever mixture of committed updates is currently
    // in memory — genuine asynchrony.
    const double delta = problem().coordinate_delta(formulation(), j, shared,
                                                    state.weights[j]);
    state.weights[j] = static_cast<float>(state.weights[j] + delta);
    // The unpadded slice: a pad entry would be one more atomic for a zero
    // contribution.
    const auto vec = problem().coordinate_vector_unpadded(formulation(), j);
    for (std::size_t k = 0; k < vec.nnz(); ++k) {
      std::atomic_ref<float> cell(shared[vec.indices[k]]);
      cell.fetch_add(static_cast<float>(delta * vec.values[k]),
                     std::memory_order_relaxed);
    }
  }
}

double ThreadedScdSolver::sweep(std::span<const std::uint32_t> order) {
  double speedup = 0.0;
  if (policy_ == CommitPolicy::kReplicated) {
    auto& state = mutable_state();
    replicated_sweep(problem(), formulation(), order, state.weights,
                     state.shared, replicas_, threads_, merge_every_, &pool_);
    speedup = cost_model_.replicated_speedup(threads_);
  } else {
    // Static partition of the shuffled coordinates across the persistent
    // pool, as the OpenMP parallel-for in the paper's implementation does:
    // the default grain gives each worker one ceil(order / threads) slice,
    // and workers race on the shared vector inside worker_pass's atomic_ref
    // commits.
    pool_.parallel_for_chunks(
        order.size(), [this, order](std::size_t begin, std::size_t end) {
          // One span per pool-thread slice, on that thread's own track.
          obs::TraceSpan chunk("threaded_scd/chunk", obs::kCurrentThread,
                               static_cast<std::int64_t>(end - begin));
          worker_pass(order.subspan(begin, end - begin));
        });
    speedup = cost_model_.atomic_speedup(threads_);
  }
  return cost_model_.epoch_seconds_sequential(workload_) / speedup;
}

}  // namespace tpa::core
