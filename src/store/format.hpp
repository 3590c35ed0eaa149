// On-disk layout of the out-of-core shard store (DESIGN.md §12).
//
// A store is one text manifest plus N shard files.  Every shard file is a
// complete, self-checksummed TPA1 binary (sparse/io_binary.hpp) holding a
// contiguous row slice [row_begin, row_begin + rows) of the global matrix
// with its label range; `cols` in each shard header is the *global* feature
// count, so a shard deserialises to a LabeledMatrix that is directly usable
// as a by-example slice.  The manifest records the global shape and, per
// shard, the row range, nnz and exact file size: the reader checks the
// file size before decoding a shard and the decoded shape after.
//
//   TPASTORE 1
//   name <dataset name>
//   rows <N>  cols <M>  nnz <nnz>  shards <K>     (one field per line)
//   shard <row_begin> <rows> <nnz> <bytes> <file>  (K lines, file relative
//                                                   to the manifest)
//
// ShardWriter streams: rows are appended one at a time and each shard is
// flushed to disk the moment it fills, so peak memory is one shard's
// arrays — the full matrix is never materialised.  The ceil split rule
// (rows_per_shard) is shared with the in-memory comparison adapter
// (MemoryShardedDataset) so both sides of a bit-exactness test agree on
// shard boundaries.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "sparse/io_svmlight.hpp"
#include "sparse/types.hpp"

namespace tpa::store {

struct ShardInfo {
  std::uint64_t row_begin = 0;
  std::uint64_t rows = 0;
  std::uint64_t nnz = 0;
  std::uint64_t bytes = 0;  // exact file size; readers validate it
  std::string file;         // path relative to the manifest's directory
};

struct Manifest {
  std::string name;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t nnz = 0;
  std::vector<ShardInfo> shards;
};

/// The even split rule: ceil(rows / shards) rows per shard, last shard
/// short.  Note ceil(rows / rows_per_shard(rows, k)) may be < k (e.g. 10
/// rows into 4 shards gives 3+3+3+1 → 4, but 6 rows into 4 gives 2+2+2 →
/// 3); writers and the in-memory adapter both derive shard count from the
/// quotient, never from the requested k.
std::uint64_t rows_per_shard(std::uint64_t rows, std::uint64_t shards);

/// Serialises / parses the manifest text format above.  The file writer
/// commits through sparse::commit_file, as every shard file does.  Readers
/// throw std::runtime_error on version/field mismatches or shard lines that
/// do not sum to the global shape.
void write_manifest(std::ostream& out, const Manifest& manifest);
void write_manifest_file(const std::string& path, const Manifest& manifest);
Manifest read_manifest(std::istream& in);
Manifest read_manifest_file(const std::string& path);

/// Streaming store writer: append rows in global order, shards flush to
/// `<directory>/<name>.shardNNNNN.tpa1` as they fill, finish() writes
/// `<directory>/<name>.manifest` and returns it.  Peak memory is one
/// shard's arrays.  Rows within a shard are validated by the CsrMatrix
/// constructor at flush (strictly increasing in-range indices).
class ShardWriter {
 public:
  /// `cols` is the global feature count stamped into every shard header;
  /// `rows_per_shard` > 0 caps each shard's row count.
  ShardWriter(std::string directory, std::string name, sparse::Index cols,
              std::uint64_t rows_per_shard);

  /// Appends one row (parallel index/value arrays) and its label.
  void append(std::span<const sparse::Index> indices,
              std::span<const sparse::Value> values, float label);

  /// Flushes the tail shard, writes the manifest, returns it.  The writer
  /// is spent afterwards; append() throws.
  Manifest finish();

  const std::string& manifest_path() const noexcept { return manifest_path_; }

 private:
  void flush_shard();

  std::string directory_;
  std::string name_;
  std::string manifest_path_;
  sparse::Index cols_;
  std::uint64_t rows_per_shard_;
  bool finished_ = false;

  Manifest manifest_;
  // Current shard under construction.
  std::vector<sparse::Offset> offsets_{0};
  std::vector<sparse::Index> indices_;
  std::vector<sparse::Value> values_;
  std::vector<float> labels_;
};

/// Convenience: shards an in-memory LabeledMatrix with the even split rule
/// into `shards` requested shards (see rows_per_shard for the actual
/// count) and returns the manifest.  Row data is appended row-at-a-time
/// through ShardWriter, so peak extra memory is still one shard.
Manifest write_store(const std::string& directory, const std::string& name,
                     const sparse::LabeledMatrix& data, std::uint64_t shards);

}  // namespace tpa::store
