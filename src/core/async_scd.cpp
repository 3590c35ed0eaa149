#include "core/async_scd.hpp"

#include <stdexcept>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace tpa::core {

AsyncScdSolver::AsyncScdSolver(const RidgeProblem& problem, Formulation f,
                               int threads, CommitPolicy policy,
                               std::uint64_t seed, CpuCostModel cost_model)
    : problem_(&problem),
      formulation_(f),
      // Checked before the engine sizes its commit ring from the count.
      threads_(threads > 0 ? threads
                           : throw std::invalid_argument(
                                 "AsyncScdSolver: threads must be positive")),
      policy_(policy),
      state_(ModelState::zeros(problem, f)),
      permutation_(problem.num_coordinates(f), util::Rng(seed)),
      engine_(static_cast<std::size_t>(threads), policy),
      cost_model_(cost_model),
      workload_(TimingWorkload::for_dataset(problem.dataset(), f)) {
  const char* base =
      policy == CommitPolicy::kAtomicAdd ? "A-SCD" : "PASSCoDe-Wild";
  name_ = std::string(base) + " (" + std::to_string(threads) + " threads)";
}

EpochReport AsyncScdSolver::run_epoch() {
  const util::WallTimer timer;
  const auto order = [this] {
    obs::TraceSpan shuffle("async_scd/shuffle");
    return permutation_.next();
  }();
  const auto stats = [&] {
    obs::TraceSpan sweep("async_scd/sweep");
    const auto compute = [this](sparse::Index j,
                                std::span<const float> shared) {
      return problem_->coordinate_delta(formulation_, j, shared,
                                        state_.weights[j]);
    };
    const auto vec_of = [this](sparse::Index j) {
      return problem_->coordinate_vector(formulation_, j);
    };
    const auto apply_weight = [this](sparse::Index j, double delta) {
      state_.weights[j] = static_cast<float>(state_.weights[j] + delta);
    };
    return engine_.run_epoch(order, compute, vec_of, apply_weight,
                             state_.shared);
  }();
  lost_updates_ += stats.lost_entries;
  ++epochs_run_;

  EpochReport report;
  report.coordinate_updates = order.size();
  const double speedup = policy_ == CommitPolicy::kAtomicAdd
                             ? cost_model_.atomic_speedup(threads_)
                             : cost_model_.wild_speedup(threads_);
  report.sim_seconds =
      cost_model_.epoch_seconds_sequential(workload_) / speedup;

  if (recompute_interval_ > 0 && epochs_run_ % recompute_interval_ == 0) {
    // Drift remedy [13]: one exact matrix pass restores w == A·weights;
    // charged at the sequential per-entry rate (it is a plain SpMV).
    obs::TraceSpan recompute("async_scd/recompute");
    state_.recompute_shared(*problem_);
    report.sim_seconds += cost_model_.epoch_seconds_sequential(workload_) /
                          cost_model_.wild_speedup(threads_);
  }
  report.wall_seconds = timer.seconds();
  return report;
}

}  // namespace tpa::core
