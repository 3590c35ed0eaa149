// Distributed synchronous SCD (paper Algorithms 3 and 4, Section V) with a
// fault layer.
//
// K simulated workers each own a shard of the data (by feature for the
// primal, by example for the dual) and a local solver — any core::Solver,
// from sequential SCD to TPA-SCD on a simulated GPU.  Every epoch:
//   1. the master's shared vector is broadcast to the workers;
//   2. each worker runs one local epoch against its own copy;
//   3. shared-vector deltas (plus, for adaptive aggregation, a few scalars)
//      are reduced to the master;
//   4. the master scales the summed update by γ (1/contributors for
//      averaging, the closed-form optimum of Algorithm 4 for adaptive) and
//      applies it;
//   5. workers rescale their local weight updates by the same γ, keeping the
//      global invariant  shared == A·(assembled weights)  exact.
// Per-epoch simulated time is broken down into local-solver compute, host
// vector arithmetic, PCIe transfers (GPU workers only) and network
// reduce/broadcast — exactly the four bars of the paper's Fig. 9 — plus the
// straggler wait past the critical worker (obs::RoundAttribution).
//
// Steps 3–5 are the master step both drivers share (cluster_solver.hpp);
// this driver adds only its schedule: the barrier round, the straggler
// deadline, late-delta buffering and epoch-counted backoff.
//
// Failure handling (DESIGN.md §8): the paper's algorithms assume all K
// workers complete every epoch; here the master instead enforces a
// straggler deadline derived from the timing breakdown and aggregates only
// the deltas that arrive in time, rescaling γ to the contributing count.
// A straggler keeps computing and its stale delta is incorporated the round
// it finishes (the PASSCoDe observation: coordinate descent tolerates
// delayed updates, and the invariant above is linear so a late Δ preserves
// it exactly).  A crashed worker loses its in-progress epoch, backs off
// exponentially, and cold-restarts from the master's state; after
// `max_restarts` crashes it is evicted and its coordinates freeze.  All of
// it is driven by a deterministic, seeded FaultInjector so every failure
// scenario is reproducible — including across checkpoint/resume.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_solver.hpp"

namespace tpa::cluster {

struct DistConfig : ClusterConfig {
  DistConfig() = default;
  explicit DistConfig(const ClusterConfig& shared) : ClusterConfig(shared) {}

  /// Straggler deadline multiplier: the master waits
  /// grace × (slowest healthy compute + network round) before aggregating
  /// without the laggards.  Must be > 1.
  double straggler_grace = 1.5;
  /// Overlap each worker's delta reduce with the remaining workers' compute
  /// in the event model: the master ingests deltas as they arrive, so only
  /// the post-overlap exposed network time is charged.  For homogeneous
  /// arrival times the binomial tree is never beaten and the round time is
  /// unchanged — overlap pays off exactly when placements are imbalanced.
  bool comm_overlap = false;
};

enum class WorkerStatus {
  kActive,    // participating normally
  kInFlight,  // missed the deadline; its stale epoch is still running
  kBackoff,   // crashed; sitting out its exponential backoff
  kEvicted,   // exceeded max_restarts; coordinates frozen for good
};

const char* worker_status_name(WorkerStatus status);

class DistributedSolver : public ClusterSolver {
 public:
  /// Partitions `global` across the workers and builds their local solvers.
  /// The dataset must outlive the solver.  Throws std::invalid_argument on
  /// non-positive num_workers / local_epochs_per_round, num_workers larger
  /// than the partitionable dimension, or straggler_grace not > 1.
  DistributedSolver(const data::Dataset& global, const DistConfig& config);

  /// One outer (communication) epoch; report times include every
  /// attribution component.
  core::EpochReport run_epoch() override;

  // ---- Fault-layer observability ----
  /// Straggler deadline applied in the most recent epoch (seconds).
  double last_deadline_seconds() const noexcept {
    return last_deadline_seconds_;
  }
  WorkerStatus worker_status(int worker) const;

  // ---- Checkpoint / resume ----
  /// Snapshot of the committed global state (assembled weights + shared
  /// vector + epoch counter), suitable for core::write_model_file.
  core::SavedModel checkpoint() const { return saved_model(); }

  /// Restores a checkpoint into a freshly constructed solver (same dataset
  /// and config): scatters the weights back to the workers, fast-forwards
  /// every local solver's permutation stream to the checkpoint epoch (each
  /// worker consumes exactly local_epochs_per_round permutations per outer
  /// epoch, run or skipped, so the streams realign bit-exactly), and
  /// resumes at checkpoint.epoch + 1.  A resume is a cluster-wide cold
  /// restart: all workers come back healthy and any delta that was in
  /// flight when the checkpoint was written is dropped.  Throws
  /// std::invalid_argument on formulation/dimension mismatch and
  /// std::logic_error if epochs have already run.
  void restore(const core::SavedModel& saved);

  /// Writes checkpoint() atomically to `path` (run loop hook).
  void write_checkpoint_file(const std::string& path) override;

 private:
  /// A delta that missed its round: buffered on the "network" until the
  /// straggler finishes, then incorporated with that round's γ.
  struct PendingDelta {
    std::vector<double> dshared;   // Δ(shared) vs the broadcast it started from
    std::vector<float> dweights;   // matching local weight deltas
    int rounds_needed = 1;
    int rounds_done = 0;
    int epoch_started = 0;  // the epoch whose flow/delta arrow this closes
    std::size_t wire_bytes = 0;  // payload size, charged when it lands
  };

  struct Worker {
    WorkerStatus status = WorkerStatus::kActive;
    int crash_count = 0;
    int backoff_remaining = 0;
    std::optional<PendingDelta> pending;
  };

  /// Crash bookkeeping: drops in-flight work, schedules the restart backoff
  /// or evicts after too many failures.
  void handle_crash(Worker& worker, int index);

  double straggler_grace_;
  bool comm_overlap_;
  std::vector<Worker> workers_;
  double last_deadline_seconds_ = 0.0;
};

/// Runs a DistributedSolver through ClusterSolver::run (core::run_loop),
/// from its current epoch (nonzero after restore()).
core::ConvergenceTrace run_distributed(DistributedSolver& solver,
                                       const core::RunOptions& options,
                                       const CheckpointConfig& ckpt = {});

}  // namespace tpa::cluster
