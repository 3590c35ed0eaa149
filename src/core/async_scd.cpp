#include "core/async_scd.hpp"

#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace tpa::core {
namespace {

std::string async_name(CommitPolicy policy, int threads) {
  return std::string(policy == CommitPolicy::kAtomicAdd ? "A-SCD"
                                                        : "PASSCoDe-Wild") +
         " (" + std::to_string(threads) + " threads)";
}

}  // namespace

AsyncScdSolver::AsyncScdSolver(const RidgeProblem& problem, Formulation f,
                               int threads, CommitPolicy policy,
                               std::uint64_t seed, CpuCostModel cost_model)
    : Solver(problem, f, seed, async_name(policy, threads),
             "async_scd/shuffle", "async_scd/sweep"),
      // Checked before the engine sizes its commit ring from the count.
      threads_(threads > 0 ? threads
                           : throw std::invalid_argument(
                                 "AsyncScdSolver: threads must be positive")),
      policy_(policy),
      engine_(static_cast<std::size_t>(threads), policy),
      cost_model_(cost_model),
      workload_(TimingWorkload::for_dataset(problem.dataset(), f)) {}

double AsyncScdSolver::sweep(std::span<const std::uint32_t> order) {
  auto& state = mutable_state();
  const auto compute = [&](sparse::Index j, std::span<const float> shared) {
    return problem().coordinate_delta(formulation(), j, shared,
                                      state.weights[j]);
  };
  // The scatter pattern is the unpadded slice: a padded one would make each
  // last-writer-wins commit store a pad entry's stale snapshot + 0 over the
  // update its real entry just wrote (and the atomic commit is a scatter).
  const auto vec_of = [this](sparse::Index j) {
    return problem().coordinate_vector_unpadded(formulation(), j);
  };
  const auto apply_weight = [&](sparse::Index j, double delta) {
    state.weights[j] = static_cast<float>(state.weights[j] + delta);
  };
  lost_updates_ +=
      engine_.run_epoch(order, compute, vec_of, apply_weight, state.shared)
          .lost_entries;
  ++epochs_run_;

  const double speedup = policy_ == CommitPolicy::kAtomicAdd
                             ? cost_model_.atomic_speedup(threads_)
                             : cost_model_.wild_speedup(threads_);
  double sim_seconds =
      cost_model_.epoch_seconds_sequential(workload_) / speedup;
  if (recompute_interval_ > 0 && epochs_run_ % recompute_interval_ == 0) {
    // Drift remedy [13]: one exact matrix pass restores w == A·weights;
    // charged at the sequential per-entry rate (it is a plain SpMV).
    obs::TraceSpan recompute("async_scd/recompute");
    state.recompute_shared(problem());
    sim_seconds += cost_model_.epoch_seconds_sequential(workload_) /
                   cost_model_.wild_speedup(threads_);
  }
  return sim_seconds;
}

}  // namespace tpa::core
