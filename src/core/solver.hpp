// Solver interface: every local solver (sequential SCD, the asynchronous CPU
// variants, TPA-SCD on a simulated GPU) exposes epoch-at-a-time execution on
// a ModelState.  The distributed engine drives solvers through this
// interface, overwriting the shared vector between epochs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/cost_model.hpp"
#include "core/model.hpp"
#include "core/ridge_problem.hpp"

namespace tpa::core {

struct EpochReport {
  std::uint64_t coordinate_updates = 0;
  double sim_seconds = 0.0;   // from the hardware timing model
  double wall_seconds = 0.0;  // actually measured on this machine
};

class Solver {
 public:
  virtual ~Solver() = default;

  virtual const std::string& name() const = 0;
  virtual Formulation formulation() const = 0;

  virtual const ModelState& state() const = 0;
  virtual ModelState& mutable_state() = 0;

  /// One pass over all coordinates in a fresh random order.
  virtual EpochReport run_epoch() = 0;

  /// One-time simulated setup cost (e.g. copying the dataset into GPU
  /// memory); zero for CPU solvers.
  virtual double setup_sim_seconds() const { return 0.0; }

  /// Replica-merge interval for solvers with a replicated shared vector:
  /// updates per lane between merges; 0 restores the solver's automatic
  /// choice (core::replica_auto_interval).  No-op for solvers without a
  /// replicated path; every solver rejects a negative value.
  virtual void set_merge_every(int merge_every) {
    checked_merge_every(merge_every, "Solver");
  }

  /// Advances the solver's per-epoch randomness (the coordinate
  /// permutation stream) past `epochs` epochs without doing any work.  The
  /// distributed engine calls this for workers that sit an epoch out
  /// (backoff, eviction, in-flight straggler) and when resuming from a
  /// checkpoint, so that every worker's stream position is always exactly
  /// `epochs_elapsed x passes` — the precondition for bit-exact resume.
  virtual void skip_epoch_randomness(int epochs) { (void)epochs; }

  /// Convenience: duality gap of the current state.  A non-null pool
  /// parallelises the evaluation (see RidgeProblem::duality_gap).
  double duality_gap(const RidgeProblem& problem,
                     util::ThreadPool* pool = nullptr) const {
    return problem.duality_gap(formulation(), state().weights,
                               state().shared, pool);
  }
};

}  // namespace tpa::core
