// Asynchronous multi-threaded CPU solvers, modelled deterministically:
//   * AScdSolver — A-SCD of Tran et al. [13]: atomic shared-vector adds, so
//     every update lands; convergence per epoch matches sequential SCD, and
//     the time model charges the paper's ≈2x speed-up at 16 threads.
//   * PasscodeWildSolver — PASSCoDe-Wild of Hsieh et al. [14]: non-atomic
//     writes lose racing updates, the shared vector drifts from the weights,
//     and the duality gap converges to a nonzero floor; ≈4x speed-up.
// Both sweep on the AsyncEngine with `threads` concurrent lanes (see
// round_engine.hpp for why this deterministic model is used on this
// machine), plus the optional recompute of [13]; core::Solver supplies the
// rest of the epoch.  threaded_scd.hpp provides real std::thread execution,
// and the replicated solver, whose deterministic lanes need no engine.
#pragma once

#include "core/cost_model.hpp"
#include "core/round_engine.hpp"
#include "core/solver.hpp"

namespace tpa::core {

class AsyncScdSolver : public Solver {
 public:
  /// Throws std::invalid_argument on non-positive `threads`.
  AsyncScdSolver(const RidgeProblem& problem, Formulation f, int threads,
                 CommitPolicy policy, std::uint64_t seed,
                 CpuCostModel cost_model = {});

  /// Cumulative shared-vector adds lost to races (zero for atomic commits).
  std::uint64_t total_lost_updates() const noexcept { return lost_updates_; }

  /// Enables the remedy of Tran et al. [13] for asynchronous drift: every
  /// `epochs` epochs the shared vector is recomputed exactly from the model
  /// weights (paper Section III.B).  The recomputation costs one matrix
  /// pass, charged to simulated time.  0 (default) disables it.
  void set_recompute_interval(int epochs) { recompute_interval_ = epochs; }
  int recompute_interval() const noexcept { return recompute_interval_; }

 private:
  double sweep(std::span<const std::uint32_t> order) override;

  int threads_;
  CommitPolicy policy_;
  AsyncEngine engine_;
  CpuCostModel cost_model_;
  TimingWorkload workload_;
  std::uint64_t lost_updates_ = 0;
  int recompute_interval_ = 0;
  int epochs_run_ = 0;
};

/// A-SCD: atomic adds (paper [13]).
class AScdSolver final : public AsyncScdSolver {
 public:
  AScdSolver(const RidgeProblem& problem, Formulation f, int threads,
             std::uint64_t seed, CpuCostModel cost_model = {})
      : AsyncScdSolver(problem, f, threads, CommitPolicy::kAtomicAdd, seed,
                       cost_model) {}
};

/// PASSCoDe-Wild: racing non-atomic writes (paper [14]).
class PasscodeWildSolver final : public AsyncScdSolver {
 public:
  PasscodeWildSolver(const RidgeProblem& problem, Formulation f, int threads,
                     std::uint64_t seed, CpuCostModel cost_model = {})
      : AsyncScdSolver(problem, f, threads, CommitPolicy::kLastWriterWins,
                       seed, cost_model) {}
};

}  // namespace tpa::core
