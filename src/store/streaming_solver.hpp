// Out-of-core dual SCD over a sharded dataset (DESIGN.md §12).
//
// The dual formulation is what makes streaming possible: coordinates are
// examples (rows), so the optimiser state that must stay resident is just
// α ∈ R^N and w̄ = Aᵀα ∈ R^M — the matrix itself streams through shard by
// shard.  (The primal would need column access across the whole matrix
// every update; there is deliberately no primal streaming path.)
//
// Epoch structure — the shard-aware permutation:
//   * a shard-order EpochPermutation draws the shard visit sequence, then
//   * one per-shard EpochPermutation draws the row order within each
//     resident shard.
// Every stream is seeded by deterministic splits of the master seed in a
// fixed construction order, and each sweep applies core::scd_sweep (or
// core::replicated_sweep for threads > 1) to the shard's α sub-span —
// exactly the code path the in-memory solvers run.  Consequently a
// streamed run is a pure function of (source bytes, seed, threads,
// merge_every): prefetch mode, window size and read mode change wall time
// only, never one bit of α or w̄.
//
// Staleness-freedom: only the resident shard's rows are updated, and every
// update lands in α and w̄ before the next shard's sweep begins (acquire()
// orders the hand-off), so no update is ever computed against a stale w̄ —
// the streamed trajectory needs no correction terms.
//
// Checkpoint/resume reuses EpochPermutation::skip: to resume at (E full
// epochs, p shards into epoch E+1), skip every stream past its consumed
// draw count — shard order past E draws, each row stream past E draws plus
// one more for shards already visited this epoch.  run_shards() exposes
// the mid-epoch stopping point the checkpoint format records.
//
// duality_gap() streams the shards once in index order and reproduces the
// *serial* accumulation order of RidgeProblem::dual_duality_gap exactly
// (per-row dots in global row order, then the same objective algebra), so
// the streamed gap is bit-equal to what the in-memory problem would
// report for the same (α, w̄).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/replica_set.hpp"
#include "core/solver.hpp"
#include "store/prefetch.hpp"
#include "store/streaming_dataset.hpp"
#include "util/permutation.hpp"
#include "util/thread_pool.hpp"

namespace tpa::store {

struct StreamingConfig {
  double lambda = 1e-3;
  std::uint64_t seed = 42;
  /// 1 = sequential sweep per shard; >1 = replicated sweep with this many
  /// lanes, on a pool sized to the host.
  int threads = 1;
  /// Decoded shards allowed in memory at once (>= 1; 2 = double buffer).
  std::size_t resident_shards = 2;
  /// false = load inline in acquire() (the no-overlap control arm).
  bool async_prefetch = true;
  /// Replicated sweeps: updates per lane between merges (0 = auto; must
  /// not be negative).
  int merge_every = 0;
};

class StreamingScdSolver {
 public:
  /// `source` must outlive the solver.  Throws std::invalid_argument on a
  /// lambda that is not positive and finite, non-positive threads, a
  /// negative merge_every or an empty source.
  StreamingScdSolver(const StreamingDataset& source, StreamingConfig config);

  const std::string& name() const noexcept { return name_; }
  const StreamingConfig& config() const noexcept { return config_; }
  const StreamingDataset& source() const noexcept { return *source_; }

  /// Sweeps at most `max_shards` more shards, stopping early at an epoch
  /// boundary; returns the number actually swept.  Drives both full
  /// epochs (run_epoch) and the mid-epoch checkpoint stop.
  std::size_t run_shards(std::size_t max_shards);

  /// Runs to the end of the current epoch (a fresh one if at a boundary).
  core::EpochReport run_epoch();

  int epochs_completed() const noexcept { return epochs_completed_; }
  /// Shards already swept in the in-progress epoch (0 at a boundary).
  std::size_t shards_done() const noexcept { return pass_active_ ? pos_ : 0; }
  bool mid_epoch() const noexcept { return pass_active_; }

  /// Streamed duality gap, bit-equal to the serial in-memory evaluation.
  /// Only callable at an epoch boundary (throws std::logic_error
  /// mid-epoch — the gap needs a full pass of its own).
  double duality_gap();

  std::span<const float> alpha() const noexcept { return alpha_; }
  std::span<const float> shared() const noexcept { return shared_; }

  /// Restores optimiser state saved after `epochs` full epochs plus
  /// `shards_done` shards of the next one.  Must be called before any
  /// sweeping on a freshly constructed solver with the same source,
  /// seed and thread count as the interrupted run.
  void resume(int epochs, std::size_t shards_done, std::vector<float> alpha,
              std::vector<float> shared);

  const PrefetchStats& prefetch_stats() const noexcept {
    return pipeline_.stats();
  }

 private:
  void start_pass(std::size_t start_pos);
  void sweep_shard(const ResidentShard& shard);

  const StreamingDataset* source_;
  StreamingConfig config_;
  std::string name_;
  std::vector<float> alpha_;   // N, the dual weights
  std::vector<float> shared_;  // M, w̄ = Aᵀα
  util::EpochPermutation shard_perm_;
  std::vector<util::EpochPermutation> row_perms_;  // one per shard
  PrefetchPipeline pipeline_;
  core::ReplicaSet replicas_;  // replicated sweeps only; persists
  std::unique_ptr<util::ThreadPool> pool_;  // threads > 1 only
  std::vector<std::size_t> order_;  // current epoch's shard sequence
  std::size_t pos_ = 0;
  bool pass_active_ = false;
  int epochs_completed_ = 0;
  bool swept_anything_ = false;
};

}  // namespace tpa::store
