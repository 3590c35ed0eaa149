// Streaming-run checkpoints: magic "TPSC", a fixed header (epoch,
// shards_done, seed, threads, rows, cols, shards, lambda), the α and w̄
// arrays, and a trailing FNV-1a checksum of everything after the magic —
// the frame TPA1 shards and .tpam models share (sparse::FrameReader).
//
// `shards_done` > 0 marks a mid-epoch checkpoint: the run stopped after
// that many shards of epoch `epoch + 1`.  Restoring hands (epoch,
// shards_done, α, w̄) to StreamingScdSolver::resume, which realigns the
// permutation streams so the continuation is bit-exact with the
// uninterrupted run.  The header identity fields (seed, threads, rows,
// cols, shards) let the restorer reject a checkpoint taken against a
// different store or schedule, where bit-exact resume is impossible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tpa::store {

struct StreamingCheckpoint {
  std::uint64_t epoch = 0;        // full epochs completed
  std::uint64_t shards_done = 0;  // shards swept into the next epoch
  std::uint64_t seed = 0;
  std::uint64_t threads = 1;
  std::uint64_t rows = 0;   // store identity: global shape and shard count
  std::uint64_t cols = 0;
  std::uint64_t shards = 0;
  double lambda = 0.0;
  std::vector<float> alpha;   // size rows
  std::vector<float> shared;  // size cols
};

/// Atomic write through sparse::commit_file, like the model saver: a crash
/// or a refused write never leaves a half-written checkpoint under the
/// final name; it throws and keeps the previous one.
void write_checkpoint_file(const std::string& path,
                           const StreamingCheckpoint& checkpoint);

/// Throws sparse::FormatError on bad magic, truncation, checksum mismatch
/// or trailing bytes (array sizes that contradict the file), and
/// std::runtime_error when the file cannot be opened.
StreamingCheckpoint read_checkpoint_file(const std::string& path);

}  // namespace tpa::store
