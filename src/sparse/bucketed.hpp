// Bucketed coordinate layout (the SySCD bucket idea, Ioannou et al. 2019).
//
// A CSR gives each of its rows a tightly-packed slice — the rows of A are
// the dual coordinates, the rows of Aᵀ the primal ones — but the slices of
// consecutive coordinates start at arbitrary byte offsets and arbitrary
// lengths, so the unrolled kernels spend a remainder loop on almost every
// coordinate and short coordinates thrash the strided reduce of the TPA-SCD
// block body.  This layout re-materialises the per-coordinate slices:
//
//   - coordinates are grouped into *buckets* by nnz class (the next power of
//     two of their nnz, minimum 8), so same-shaped work is contiguous;
//   - each coordinate's slice is padded to a multiple of 8 entries — padding
//     repeats the coordinate's last index with value 0, which contributes
//     exactly 0.0 to every dot/residual kernel — so the 4/8-way unrolled
//     reductions never execute a remainder iteration;
//   - bucket starts are rounded to 64-byte boundaries in both the index and
//     value arrays (AlignedVector backing), keeping packed loads inside
//     cache lines.
//
// `padded(j)` is what the solvers feed the reductions.  A scatter needs
// distinct indices, so it reads `unpadded(j)`, the exact source row, as
// does code that must see true nnz.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "util/aligned.hpp"

namespace tpa::sparse {

class BucketedLayout {
 public:
  BucketedLayout() = default;

  /// Buckets the rows of a CSR matrix: the rows of A are the dual
  /// coordinates, the rows of Aᵀ (its columns) the primal ones.
  static BucketedLayout from_rows(const CsrMatrix& m);

  /// Number of coordinates (rows of the source matrix).
  Index count() const noexcept { return static_cast<Index>(slots_.size()); }
  /// Dimension of the dense vector the coordinates index into.
  Index dim() const noexcept { return dim_; }
  bool empty() const noexcept { return slots_.empty(); }

  /// Zero-padded view of coordinate j: width_of(j) entries, the first
  /// nnz_of(j) of which are the source slice.  Safe for every reduction;
  /// not for a scatter (its last index repeats).
  SparseVectorView padded(Index j) const {
    const Slot& s = slots_[j];
    return SparseVectorView{
        std::span<const Index>(indices_).subspan(s.offset, s.width),
        std::span<const Value>(values_).subspan(s.offset, s.width)};
  }

  /// Exact source slice of coordinate j (no padding, strictly increasing
  /// indices).
  SparseVectorView unpadded(Index j) const {
    const Slot& s = slots_[j];
    return SparseVectorView{
        std::span<const Index>(indices_).subspan(s.offset, s.nnz),
        std::span<const Value>(values_).subspan(s.offset, s.nnz)};
  }

  std::size_t nnz_of(Index j) const { return slots_[j].nnz; }
  std::size_t width_of(Index j) const { return slots_[j].width; }

  /// Buckets, ordered by ascending nnz class.
  int num_buckets() const noexcept { return static_cast<int>(buckets_.size()); }
  /// The nnz class (power-of-two upper bound) of bucket b.
  std::size_t bucket_class(int b) const { return buckets_[b].nnz_class; }
  /// Coordinate ids stored in bucket b, in storage order — iterating these
  /// walks the index/value arrays sequentially.
  std::span<const Index> bucket_coords(int b) const {
    const Bucket& bucket = buckets_[b];
    return std::span<const Index>(order_).subspan(bucket.begin,
                                                  bucket.count);
  }
  /// Every coordinate id in storage order: each bucket's bucket_coords in
  /// turn.
  std::span<const Index> storage_order() const noexcept { return order_; }

  /// Total padded entries (>= source nnz; the padding overhead).
  std::size_t padded_nnz() const noexcept { return indices_.size(); }

  std::size_t memory_bytes() const noexcept {
    return indices_.size() * sizeof(Index) + values_.size() * sizeof(Value) +
           slots_.size() * sizeof(Slot) + order_.size() * sizeof(Index);
  }

 private:
  struct Slot {
    std::size_t offset = 0;   // into indices_/values_
    std::uint32_t nnz = 0;    // true entries
    std::uint32_t width = 0;  // padded entries (multiple of 8, 0 if nnz == 0)
  };
  struct Bucket {
    std::size_t nnz_class = 0;  // coordinates with nnz in (class/2, class]
    std::size_t begin = 0;      // into order_
    std::size_t count = 0;
  };

  std::vector<Slot> slots_;
  std::vector<Bucket> buckets_;
  std::vector<Index> order_;  // coordinate ids in bucket-major storage order
  util::AlignedVector<Index> indices_;
  util::AlignedVector<Value> values_;
  Index dim_ = 0;
};

}  // namespace tpa::sparse
