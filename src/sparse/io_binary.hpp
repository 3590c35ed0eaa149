// Fast binary serialization of labelled CSR matrices.
//
// Layout: magic "TPA1", little-endian header (rows, cols, nnz, label count),
// raw arrays, then an FNV-1a checksum of everything after the magic.  Used by
// the bench harness to cache generated datasets between runs, and as the
// per-shard chunk format of the out-of-core store (store/format.hpp): every
// shard file is a self-checksummed TPA1 slice, so the whole store machinery
// reads and writes through this one module.
//
// Both directions stream: the writer pushes each array straight to the
// output while folding it into a running Fnv1a accumulator (O(1) heap beyond
// the caller's arrays), and the reader checksums as it fills the destination
// vectors.  read_binary_header() peeks at the shape without touching the
// payload — the store manifest validates shard files this way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sparse/io_svmlight.hpp"

namespace tpa::sparse {

/// Incrementally updatable FNV-1a 64-bit accumulator: feed any number of
/// byte ranges via update(), read the running digest at any point.  Chaining
/// update(a); update(b) equals one update over the concatenation, so
/// streaming writers can checksum without buffering the checksummed region.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;

  constexpr explicit Fnv1a(std::uint64_t seed = kOffsetBasis) noexcept
      : hash_(seed) {}

  void update(const void* data, std::size_t bytes) noexcept;
  std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_;
};

/// One-shot FNV-1a 64-bit over a byte range (wraps Fnv1a).
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = Fnv1a::kOffsetBasis);

/// The one stream reader of the checksummed binary formats (TPA1 here,
/// .tpam models, TPSC and .async checkpoints): every read is exact and
/// folded into a running Fnv1a, and read_array() refuses a header-declared
/// length larger than the bytes left in the stream *before* allocating, so
/// a hostile header fails as std::runtime_error instead of a giant
/// allocation or std::bad_alloc.  Error messages start with `context`.
class CheckedReader {
 public:
  CheckedReader(std::istream& in, std::string context)
      : in_(in), context_(std::move(context)) {}

  /// Reads exactly `bytes` into `data` and folds them into the checksum;
  /// throws "<context> truncated" on a short read.
  void read(void* data, std::size_t bytes);

  /// Reads `count` elements of T.  A stream that cannot report its length
  /// is read in bounded chunks instead, so the allocation never runs more
  /// than one chunk ahead of the bytes actually delivered.
  template <typename T>
  std::vector<T> read_array(std::uint64_t count) {
    const bool checked = fits(count, sizeof(T));
    std::vector<T> out;
    if (checked) out.reserve(static_cast<std::size_t>(count));
    constexpr std::uint64_t kChunk = (std::uint64_t{1} << 20) / sizeof(T) + 1;
    while (out.size() < count) {
      const std::size_t have = out.size();
      out.resize(have + std::min(count - have, kChunk));
      read(out.data() + have, (out.size() - have) * sizeof(T));
    }
    return out;
  }

  std::uint64_t digest() const noexcept { return checksum_.digest(); }

 private:
  /// False when the stream cannot seek; throws when `count` elements of
  /// `element_bytes` cannot fit in the bytes left.
  bool fits(std::uint64_t count, std::size_t element_bytes);

  std::istream& in_;
  std::string context_;
  Fnv1a checksum_;
};

/// The fixed-size header following the 4-byte magic.  Field order matches
/// the on-disk layout exactly.
struct BinaryHeader {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t nnz = 0;
  std::uint64_t labels = 0;

  /// Bytes of the arrays following the header (offsets/indices/values/
  /// labels), excluding magic, header and trailing checksum.
  std::uint64_t payload_bytes() const noexcept;
  /// Total file size implied by the header.
  std::uint64_t file_bytes() const noexcept;
};

/// Serializes `data` to a binary stream; throws std::runtime_error on IO
/// failure.  Arrays stream directly to `out` with the checksum accumulated
/// incrementally — nothing beyond the header is buffered.
void write_binary(std::ostream& out, const LabeledMatrix& data);
void write_binary_file(const std::string& path, const LabeledMatrix& data);

/// Deserializes; throws std::runtime_error on truncation, bad magic, or
/// checksum mismatch.
LabeledMatrix read_binary(std::istream& in);
LabeledMatrix read_binary_file(const std::string& path);
/// Deserializes from an in-memory image (e.g. a memory-mapped shard file);
/// same validation as the stream reader.
LabeledMatrix read_binary(const void* data, std::size_t size);

/// Reads magic + header only, leaving the stream positioned at the payload.
/// Throws on bad magic or truncation.  Cheap shape peek: the payload is
/// neither read nor checksummed.
BinaryHeader read_binary_header(std::istream& in);
BinaryHeader read_binary_header_file(const std::string& path);
BinaryHeader read_binary_header(const void* data, std::size_t size);

}  // namespace tpa::sparse
