// Deterministic model of asynchronous coordinate updates.
//
// All three asynchronous solvers in the paper — A-SCD (16 CPU threads with
// atomic adds), PASSCoDe-Wild (16 CPU threads, non-atomic), and TPA-SCD
// (hundreds of concurrent GPU thread blocks, atomic adds) — share one
// structure: W "lanes" (threads / thread blocks) are in flight at any
// moment; each picks a coordinate, *reads* the shared vector, computes its
// exact coordinate update against that possibly-stale read, and *writes*
// its sparse update back.  The two behaviours the paper measures are
//   (1) staleness: a lane's read misses the updates of lanes that are in
//       flight concurrently (on average ~W of them), and
//   (2) lost updates: without atomics, concurrent read-modify-write
//       sequences on the same shared-vector entry overwrite each other, so
//       the shared vector drifts from the model weights (PASSCoDe-Wild's
//       nonzero duality-gap floor).
//
// AsyncEngine models this as a delayed-commit pipeline: coordinates are
// processed in epoch order, but an update's shared-vector write only lands
// `window` steps after its read — exactly the staleness of a device that
// keeps `window` blocks resident and retires/launches them continuously.
// With window == 1 the engine is exactly sequential SCD.  Under
// CommitPolicy::kAtomicAdd every write lands (float atomics); under
// kLastWriterWins each update stores `snapshot + contribution` per entry,
// silently overwriting whatever landed in between — the non-atomic RMW race.
// Everything is deterministic given the epoch permutation; on a one-core CI
// machine this is *more* faithful to the paper's 16-thread / many-block
// behaviour than real threads would be (threaded_scd.hpp provides the real-
// thread path).  The third policy, kReplicated, has no commit ring to model:
// its lanes own private replicas, so core::replicated_sweep (threaded_scd.hpp)
// runs it deterministically on any schedule and the engine refuses it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace tpa::core {

enum class CommitPolicy {
  kAtomicAdd,        // every lane's update lands (A-SCD, TPA-SCD)
  kLastWriterWins,   // racing read-modify-writes lose updates (Wild)
  kReplicated,       // plain stores into per-lane replicas, periodic merge
                     // (core::replicated_sweep; not an engine policy)
};

struct AsyncEngineStats {
  std::uint64_t updates = 0;            // coordinate updates processed
  std::uint64_t committed_entries = 0;  // shared-vector writes that landed
  std::uint64_t lost_entries = 0;       // writes that clobbered a racing add
};

class AsyncEngine {
 public:
  /// `window` concurrent lanes committing under `policy`.  Throws
  /// std::invalid_argument on zero window.
  AsyncEngine(std::size_t window, CommitPolicy policy);

  std::size_t window() const noexcept { return window_; }
  CommitPolicy policy() const noexcept { return policy_; }

  /// Computes the update delta for coordinate j from the currently visible
  /// shared vector.
  using ComputeFn =
      std::function<double(sparse::Index j, std::span<const float> shared)>;
  /// Returns coordinate j's sparse vector (the scatter pattern of its
  /// shared-vector update).
  using VectorFn = std::function<sparse::SparseVectorView(sparse::Index j)>;
  /// Applies the (always-correct) private weight update for coordinate j.
  using WeightFn = std::function<void(sparse::Index j, double delta)>;

  /// Runs one epoch over `order` (a permutation of the coordinates),
  /// mutating `shared` in place; all in-flight updates are drained before
  /// returning.  Requires policy kAtomicAdd or kLastWriterWins — the
  /// replicated policy runs on core::replicated_sweep.
  AsyncEngineStats run_epoch(std::span<const std::uint32_t> order,
                             const ComputeFn& compute, const VectorFn& vec_of,
                             const WeightFn& apply_weight,
                             std::span<float> shared);

 private:
  struct PendingUpdate {
    sparse::Index coord = 0;
    double delta = 0.0;
    // Per-entry shared-vector values observed at read time; used by the
    // last-writer-wins commit (the non-atomic RMW stores read + add).
    std::vector<float> snapshot;
  };

  void commit(const PendingUpdate& update, const VectorFn& vec_of,
              std::span<float> shared, AsyncEngineStats& stats) const;

  std::size_t window_;
  CommitPolicy policy_;
  std::vector<PendingUpdate> ring_;
};

}  // namespace tpa::core
