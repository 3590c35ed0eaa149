// Convergence driver for streamed runs: the out-of-core counterpart of
// core::run_solver, producing the same ConvergenceTrace under the same
// RunOptions semantics (gap_every stride, final epoch always evaluated,
// target-gap early stop) and the same "train/epoch" / "train/gap_eval"
// spans and "train.epochs" / "train.gap_evals" counters — so run reports
// and trace tooling treat streamed and in-memory runs identically.
//
// Checkpointing: with a non-empty CheckpointOptions::path the driver
// writes a TPSC checkpoint every `every_shards` shards — shard, not
// epoch, granularity, because at Criteo scale a single epoch is hours and
// the whole point of the store is surviving that.  `gap_threads` from
// RunOptions is ignored here (the streamed gap is the serial-order
// evaluation by design); the merge interval rides in StreamingConfig.
#pragma once

#include <string>

#include "core/convergence.hpp"
#include "store/checkpoint.hpp"
#include "store/streaming_solver.hpp"

namespace tpa::store {

struct CheckpointOptions {
  std::string path;            // empty = no checkpoints
  std::size_t every_shards = 0;  // 0 = only when path set and run ends
};

core::ConvergenceTrace run_streaming(StreamingScdSolver& solver,
                                     const core::RunOptions& options,
                                     const CheckpointOptions& checkpoint = {});

/// Snapshot of `solver`'s current position and state as a checkpoint.
StreamingCheckpoint make_checkpoint(const StreamingScdSolver& solver);

}  // namespace tpa::store
