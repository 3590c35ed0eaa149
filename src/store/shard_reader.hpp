// Validated shard access for the out-of-core store.
//
// ShardReader resolves a manifest's shard table against the filesystem and
// deserialises individual shards on demand with TPA1's one decoder,
// sparse::read_binary on an ifstream: the OS page cache is the only cache,
// and the working-set cost is one shard's arrays.  The decode dominates a
// shard load, so mapping the file would save nothing measurable
// (DESIGN.md §12).
//
// Every read validates: manifest-declared file size vs. the actual file,
// the shard's trailing FNV-1a checksum and end of file (inside
// read_binary), and the decoded shape vs. the manifest row/nnz entry.  A
// shard that fails any check throws std::runtime_error naming the shard
// and its file — a truncated or corrupted shard can never reach a solver.
// Reads are thread-safe (no shared mutable state), which is what lets the
// prefetch pipeline pull shard k+1 while the solver owns shard k.  Bytes
// read land on the "store.bytes_read" counter under a "store/load" span.
#pragma once

#include <cstddef>
#include <string>

#include "store/format.hpp"

namespace tpa::store {

class ShardReader {
 public:
  /// `manifest_dir` anchors the manifest's relative shard paths.
  ShardReader(Manifest manifest, std::string manifest_dir);

  /// Opens a store by manifest path (directory derived from it).
  static ShardReader open(const std::string& manifest_path);

  const Manifest& manifest() const noexcept { return manifest_; }
  std::size_t num_shards() const noexcept { return manifest_.shards.size(); }

  /// Reads, validates and deserialises shard `i`.  Thread-safe.
  sparse::LabeledMatrix read_shard(std::size_t i) const;

  /// Absolute path of shard `i`'s file.
  std::string shard_path(std::size_t i) const;

 private:
  Manifest manifest_;
  std::string dir_;
};

}  // namespace tpa::store
