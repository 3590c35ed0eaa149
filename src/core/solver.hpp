// Solver: the one epoch of paper Algorithm 1, shared by every local solver
// (sequential SCD, the asynchronous CPU variants, TPA-SCD on a simulated
// GPU).  The base owns the problem, formulation, name, ModelState and the
// coordinate permutation stream, and run_epoch() is the same for all of
// them: draw a fresh permutation, sweep it, report.  A solver supplies only
// its sweep — how the updates' writes reach the shared vector — and the
// sweep's simulated clock.  The distributed engine drives solvers through
// this interface, overwriting the shared vector between epochs.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/cost_model.hpp"
#include "core/model.hpp"
#include "core/ridge_problem.hpp"
#include "util/permutation.hpp"

namespace tpa::core {

struct EpochReport {
  std::uint64_t coordinate_updates = 0;
  double sim_seconds = 0.0;   // from the hardware timing model
  double wall_seconds = 0.0;  // actually measured on this machine
};

class Solver {
 public:
  virtual ~Solver() = default;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  const std::string& name() const noexcept { return name_; }
  Formulation formulation() const noexcept { return formulation_; }

  const ModelState& state() const noexcept { return state_; }
  ModelState& mutable_state() noexcept { return state_; }

  /// One pass over all coordinates in a fresh random order: the shuffle
  /// and the sweep each run under their solver's trace span, and the
  /// report carries the sweep's simulated seconds and the measured wall
  /// time of both.
  EpochReport run_epoch();

  /// One-time simulated setup cost (e.g. copying the dataset into GPU
  /// memory); zero for CPU solvers.
  virtual double setup_sim_seconds() const { return 0.0; }

  /// Advances the solver's per-epoch randomness (the coordinate
  /// permutation stream) past `epochs` epochs without doing any work.  The
  /// distributed engine calls this for workers that sit an epoch out
  /// (backoff, eviction, in-flight straggler) and when resuming from a
  /// checkpoint, so that every worker's stream position is always exactly
  /// `epochs_elapsed x passes` — the precondition for bit-exact resume.
  void skip_epoch_randomness(int epochs) { permutation_.skip(epochs); }

  /// Convenience: duality gap of the current state.  A non-null pool
  /// parallelises the evaluation (see RidgeProblem::duality_gap).
  double duality_gap(const RidgeProblem& problem,
                     util::ThreadPool* pool = nullptr) const {
    return problem.duality_gap(formulation(), state().weights,
                               state().shared, pool);
  }

 protected:
  /// Binds the solver to `problem` under `f` (ModelState::zeros throws for
  /// a loss without `f`) and seeds the permutation stream.  The span names
  /// must outlive the solver (string literals).
  Solver(const RidgeProblem& problem, Formulation f, std::uint64_t seed,
         std::string name, const char* shuffle_span, const char* sweep_span);

  /// Applies one update per coordinate of `order` to mutable_state() and
  /// returns the epoch's simulated seconds.
  virtual double sweep(std::span<const std::uint32_t> order) = 0;

  const RidgeProblem& problem() const noexcept { return *problem_; }

 private:
  const RidgeProblem* problem_;
  Formulation formulation_;
  std::string name_;
  ModelState state_;
  util::EpochPermutation permutation_;
  const char* shuffle_span_;
  const char* sweep_span_;
};

}  // namespace tpa::core
