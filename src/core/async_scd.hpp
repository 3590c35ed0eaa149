// Asynchronous multi-threaded CPU solvers, modelled deterministically:
//   * AScdSolver — A-SCD of Tran et al. [13]: atomic shared-vector adds, so
//     every update lands; convergence per epoch matches sequential SCD, and
//     the time model charges the paper's ≈2x speed-up at 16 threads.
//   * PasscodeWildSolver — PASSCoDe-Wild of Hsieh et al. [14]: non-atomic
//     writes lose racing updates, the shared vector drifts from the weights,
//     and the duality gap converges to a nonzero floor; ≈4x speed-up.
// Both run on the AsyncEngine with `threads` concurrent lanes (see
// round_engine.hpp for why this deterministic model is used on this
// machine); threaded_scd.hpp provides real std::thread execution, and the
// replicated solver, whose deterministic lanes need no engine.
#pragma once

#include "core/cost_model.hpp"
#include "core/round_engine.hpp"
#include "core/solver.hpp"
#include "util/permutation.hpp"

namespace tpa::core {

class AsyncScdSolver : public Solver {
 public:
  /// Throws std::invalid_argument on non-positive `threads`.
  AsyncScdSolver(const RidgeProblem& problem, Formulation f, int threads,
                 CommitPolicy policy, std::uint64_t seed,
                 CpuCostModel cost_model = {});

  const std::string& name() const override { return name_; }
  Formulation formulation() const override { return formulation_; }
  const ModelState& state() const override { return state_; }
  ModelState& mutable_state() override { return state_; }

  EpochReport run_epoch() override;
  void skip_epoch_randomness(int epochs) override {
    permutation_.skip(epochs);
  }

  /// Cumulative shared-vector adds lost to races (zero for atomic commits).
  std::uint64_t total_lost_updates() const noexcept { return lost_updates_; }

  /// Enables the remedy of Tran et al. [13] for asynchronous drift: every
  /// `epochs` epochs the shared vector is recomputed exactly from the model
  /// weights (paper Section III.B).  The recomputation costs one matrix
  /// pass, charged to simulated time.  0 (default) disables it.
  void set_recompute_interval(int epochs) { recompute_interval_ = epochs; }
  int recompute_interval() const noexcept { return recompute_interval_; }

 private:
  const RidgeProblem* problem_;
  Formulation formulation_;
  int threads_;
  CommitPolicy policy_;
  std::string name_;
  ModelState state_;
  util::EpochPermutation permutation_;
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
