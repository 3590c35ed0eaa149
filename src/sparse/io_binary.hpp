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
// vectors.  read_binary(std::istream&) is TPA1's one decoder; the store
// checks a shard's file size against its manifest entry before decoding it,
// and the decoded shape after.
//
// FrameReader/FrameWriter (the frame of TPA1, .tpam models and TPSC
// checkpoints), CheckedReader, CheckedWriter and commit_file are shared by
// every checksummed format, and commit_file also writes the store manifest:
// one frame, one reader, one writer and one commit rule for every file whose
// loss or tear would cost a run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
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

/// The typed error of every checksummed format: bytes that do not decode
/// (bad magic, truncation, a declared length beyond the bytes left, a
/// checksum mismatch, trailing bytes or a header field the format refuses).
/// what() starts with the format's context ("binary read", "model read",
/// "checkpoint", "async state").
class FormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The one stream reader of the checksummed binary formats (TPA1 here,
/// .tpam models, TPSC and .async checkpoints): every read is exact and
/// folded into a running Fnv1a, and read_array() refuses a header-declared
/// length larger than the bytes left in the stream *before* allocating, so
/// a hostile header fails as a FormatError instead of a giant allocation or
/// std::bad_alloc.  Error messages start with `context`.
class CheckedReader {
 public:
  CheckedReader(std::istream& in, std::string context)
      : in_(in), context_(std::move(context)) {}

  /// Reads exactly `bytes` into `data` and folds them into the checksum;
  /// throws "<context> truncated" on a short read.
  void read(void* data, std::size_t bytes);

  /// Ends the checksummed body: reads the stored digest, unfolded, checks it
  /// against everything read so far, and refuses any byte after it.  Throws
  /// "<context> truncated", "<context>: checksum mismatch" or
  /// "<context>: trailing bytes".
  void finish();

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

 protected:
  const std::string& context() const noexcept { return context_; }

 private:
  /// False when the stream cannot seek; throws when `count` elements of
  /// `element_bytes` cannot fit in the bytes left.
  bool fits(std::uint64_t count, std::size_t element_bytes);

  std::istream& in_;
  std::string context_;
  Fnv1a checksum_;
};

/// The frame of TPA1, .tpam and TPSC: the format's 4-byte magic, outside the
/// digest, then a body read through CheckedReader and closed by finish().
/// Throws "<context>: bad magic" on a short or foreign magic.
class FrameReader : public CheckedReader {
 public:
  FrameReader(std::istream& in, const char (&magic)[4], std::string context);
};

/// CheckedReader's mirror, the one stream writer of the checksummed binary
/// formats: every write is checked and folded into a running Fnv1a, and
/// write_digest() appends the digest itself, unfolded.  A stream that
/// buffers can still fail after the last write; commit_file's flush and
/// close checks catch that.  Error messages start with `context`.
class CheckedWriter {
 public:
  CheckedWriter(std::ostream& out, std::string context)
      : out_(out), context_(std::move(context)) {}

  /// Writes `bytes` from `data` and folds them into the checksum; throws
  /// "<context> write failed" once the stream has failed.
  void write(const void* data, std::size_t bytes);

  /// Appends the digest of everything written so far.
  void write_digest();

 protected:
  void put(const void* data, std::size_t bytes);

 private:
  std::ostream& out_;
  std::string context_;
  Fnv1a checksum_;
};

/// FrameReader's mirror: writes the magic, unfolded; the body follows
/// through write() and ends with write_digest().
class FrameWriter : public CheckedWriter {
 public:
  FrameWriter(std::ostream& out, const char (&magic)[4], std::string context);
};

/// The one commit path of every checksummed or manifest file: `write`
/// fills a stream on the sibling `path + ".tmp"`, which is then flushed,
/// checked, closed, checked again and renamed over `path`.  `path`
/// therefore only ever names a complete file: rename(2) is atomic within a
/// filesystem, and on any failure the .tmp is removed, the previous `path`
/// is left as it was, and a std::runtime_error naming `path` is thrown.
void commit_file(const std::string& path, const std::string& context,
                 const std::function<void(std::ostream&)>& write);

/// The fixed-size header following the 4-byte magic.  Field order matches
/// the on-disk layout exactly.
struct BinaryHeader {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t nnz = 0;
  std::uint64_t labels = 0;

  /// Total file size implied by the header.
  std::uint64_t file_bytes() const noexcept;
};

/// Serializes `data` to a binary stream; throws std::runtime_error on IO
/// failure.  Arrays stream directly to `out` with the checksum accumulated
/// incrementally — nothing beyond the header is buffered.  The file form
/// writes through commit_file.
void write_binary(std::ostream& out, const LabeledMatrix& data);
void write_binary_file(const std::string& path, const LabeledMatrix& data);

/// Deserializes; throws FormatError on bad magic, truncation, checksum
/// mismatch or trailing bytes.
LabeledMatrix read_binary(std::istream& in);
LabeledMatrix read_binary_file(const std::string& path);

}  // namespace tpa::sparse
