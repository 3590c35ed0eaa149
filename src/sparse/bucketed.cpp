#include "sparse/bucketed.hpp"

#include <algorithm>

namespace tpa::sparse {
namespace {

// 64 bytes of 4-byte entries: bucket starts are rounded to this so both the
// index and value slices of a bucket begin on a cache line.
constexpr std::size_t kAlignEntries = 16;

std::size_t nnz_class_of(std::size_t nnz) {
  std::size_t cls = 8;
  while (cls < nnz) cls *= 2;
  return cls;
}

std::size_t round_up(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

}  // namespace

BucketedLayout BucketedLayout::from_rows(const CsrMatrix& m) {
  const Index count = m.rows();
  BucketedLayout layout;
  layout.dim_ = m.cols();
  layout.slots_.resize(count);

  // Bucket-major order: ascending nnz class, ties by coordinate id (a stable
  // sort on the class keeps ids ascending within a bucket).
  layout.order_.resize(count);
  for (Index j = 0; j < count; ++j) layout.order_[j] = j;
  std::stable_sort(layout.order_.begin(), layout.order_.end(),
                   [&](Index a, Index b) {
                     return nnz_class_of(m.row_nnz(a)) <
                            nnz_class_of(m.row_nnz(b));
                   });

  // Lay out slots bucket by bucket: each bucket starts on a cache line, each
  // slot is padded to a multiple of 8 entries (empty coordinates get width
  // 0 so their views stay empty, exactly like the source matrix's).
  std::size_t offset = 0;
  std::size_t at = 0;
  while (at < layout.order_.size()) {
    const std::size_t cls = nnz_class_of(m.row_nnz(layout.order_[at]));
    offset = round_up(offset, kAlignEntries);
    Bucket bucket;
    bucket.nnz_class = cls;
    bucket.begin = at;
    while (at < layout.order_.size() &&
           nnz_class_of(m.row_nnz(layout.order_[at])) == cls) {
      const Index j = layout.order_[at];
      const std::size_t nnz = m.row_nnz(j);
      Slot& slot = layout.slots_[j];
      slot.offset = offset;
      slot.nnz = static_cast<std::uint32_t>(nnz);
      slot.width =
          static_cast<std::uint32_t>(nnz == 0 ? 0 : round_up(nnz, 8));
      offset += slot.width;
      ++at;
    }
    bucket.count = at - bucket.begin;
    layout.buckets_.push_back(bucket);
  }

  layout.indices_.assign(offset, 0);
  layout.values_.assign(offset, 0.0F);
  for (Index j = 0; j < count; ++j) {
    const SparseVectorView view = m.row(j);
    const Slot& slot = layout.slots_[j];
    std::copy(view.indices.begin(), view.indices.end(),
              layout.indices_.begin() + static_cast<std::ptrdiff_t>(slot.offset));
    std::copy(view.values.begin(), view.values.end(),
              layout.values_.begin() + static_cast<std::ptrdiff_t>(slot.offset));
    // Padding: repeat the last real index with value 0 so padded entries stay
    // within the coordinate's own index set and contribute exactly zero to
    // reductions.  (A scatter reads the unpadded slice: it needs distinct
    // indices.)
    if (slot.nnz > 0) {
      const Index last = view.indices.back();
      for (std::size_t k = slot.nnz; k < slot.width; ++k) {
        layout.indices_[slot.offset + k] = last;
      }
    }
  }
  return layout;
}

}  // namespace tpa::sparse
