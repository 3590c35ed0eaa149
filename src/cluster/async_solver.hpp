// No-barrier rounds on the one cluster scheduler (cluster_solver.hpp):
// bounded-staleness asynchronous SCD with elastic membership (DESIGN.md §8).
// Following Hybrid-DCA's double asynchrony and PASSCoDe's delay tolerance
// (PAPERS.md), an AsyncConfig lets each worker cycle pull → local epochs →
// push at its own pace, and the master takes a step for every push the
// moment it lands.  A push whose pull is `s` versions old applies at full
// strength while s ≤ τ and beyond that is damped by θ = τ/s or rejected
// (core::cluster_staleness_damping); γ is rescaled to the live member
// count.  Scripted leave/join events detach and revive worker slots, and a
// join can revive a slot that crashes evicted.
#pragma once

#include "cluster/cluster_solver.hpp"

namespace tpa::cluster {

/// The one cluster driver, typed to run no-barrier rounds.
class AsyncSolver : public ClusterSolver {
 public:
  AsyncSolver(const data::Dataset& global, const AsyncConfig& config)
      : ClusterSolver(global, config) {}
};

/// Runs a no-barrier solver through ClusterSolver::run (core::run_loop),
/// from its current round (nonzero after a restore).
inline core::ConvergenceTrace run_async(AsyncSolver& solver,
                                        const core::RunOptions& options,
                                        const CheckpointConfig& ckpt = {}) {
  return solver.run(options, ckpt);
}

}  // namespace tpa::cluster
