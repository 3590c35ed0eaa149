// Barrier rounds: paper Algorithms 3 and 4 on the one cluster scheduler
// (cluster_solver.hpp).  A DistConfig makes every round wait for the pushes
// of the members it scheduled (or the straggler grace deadline), sum them in
// worker-index order and take one master step, priced as the tree (or
// overlapped) reduce and broadcast of the paper's Fig. 9.
#pragma once

#include "cluster/cluster_solver.hpp"

namespace tpa::cluster {

/// The one cluster driver, typed to run barrier rounds.
class DistributedSolver : public ClusterSolver {
 public:
  DistributedSolver(const data::Dataset& global, const DistConfig& config)
      : ClusterSolver(global, config) {}
};

/// Runs a barrier solver through ClusterSolver::run (core::run_loop), from
/// its current epoch (nonzero after restore()).
inline core::ConvergenceTrace run_distributed(
    DistributedSolver& solver, const core::RunOptions& options,
    const CheckpointConfig& ckpt = {}) {
  return solver.run(options, ckpt);
}

}  // namespace tpa::cluster
