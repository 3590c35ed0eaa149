// COO builder, CSR construction/validation/access, the transpose's rows
// as columns, and the bucketed layout.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sparse/bucketed.hpp"
#include "sparse/coo.hpp"
#include "sparse/convert.hpp"
#include "sparse/csr.hpp"
#include "util/rng.hpp"

namespace tpa::sparse {
namespace {

TEST(CooBuilder, TracksDimensionsAndEntries) {
  CooBuilder coo(3, 4);
  EXPECT_EQ(coo.rows(), 3u);
  EXPECT_EQ(coo.cols(), 4u);
  EXPECT_EQ(coo.nnz(), 0u);
  coo.add(0, 1, 2.0F);
  coo.add(2, 3, -1.0F);
  EXPECT_EQ(coo.nnz(), 2u);
}

TEST(CooBuilder, CoalesceSortsAndSumsDuplicates) {
  CooBuilder coo(2, 2);
  coo.add(1, 1, 1.0F);
  coo.add(0, 0, 2.0F);
  coo.add(1, 1, 3.0F);
  coo.coalesce();
  ASSERT_EQ(coo.nnz(), 2u);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 2.0F}));
  EXPECT_EQ(coo.entries()[1], (Triplet{1, 1, 4.0F}));
}

TEST(CooBuilder, CoalesceDropsCancellations) {
  CooBuilder coo(1, 1);
  coo.add(0, 0, 1.0F);
  coo.add(0, 0, -1.0F);
  coo.coalesce();
  EXPECT_EQ(coo.nnz(), 0u);
}

TEST(CooBuilder, ClearKeepsDimensions) {
  CooBuilder coo(2, 3);
  coo.add(0, 0, 1.0F);
  coo.clear();
  EXPECT_EQ(coo.nnz(), 0u);
  EXPECT_EQ(coo.rows(), 2u);
}

CsrMatrix small_csr() {
  // [ 1 0 2 ]
  // [ 0 0 0 ]
  // [ 0 3 4 ]
  return CsrMatrix(3, 3, {0, 2, 2, 4}, {0, 2, 1, 2},
                   {1.0F, 2.0F, 3.0F, 4.0F});
}

TEST(CsrMatrix, BasicAccessors) {
  const auto m = small_csr();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.row_nnz(0), 2u);
  EXPECT_EQ(m.row_nnz(1), 0u);
  EXPECT_EQ(m.row_nnz(2), 2u);
}

TEST(CsrMatrix, RowViews) {
  const auto m = small_csr();
  const auto row0 = m.row(0);
  ASSERT_EQ(row0.nnz(), 2u);
  EXPECT_EQ(row0.indices[0], 0u);
  EXPECT_EQ(row0.indices[1], 2u);
  EXPECT_EQ(row0.values[0], 1.0F);
  EXPECT_EQ(row0.values[1], 2.0F);
  EXPECT_EQ(m.row(1).nnz(), 0u);
}

TEST(CsrMatrix, PointLookup) {
  const auto m = small_csr();
  EXPECT_EQ(m.at(0, 0), 1.0F);
  EXPECT_EQ(m.at(0, 1), 0.0F);
  EXPECT_EQ(m.at(0, 2), 2.0F);
  EXPECT_EQ(m.at(1, 1), 0.0F);
  EXPECT_EQ(m.at(2, 2), 4.0F);
}

TEST(CsrMatrix, RowSquaredNorms) {
  const auto norms = small_csr().row_squared_norms();
  ASSERT_EQ(norms.size(), 3u);
  EXPECT_DOUBLE_EQ(norms[0], 5.0);
  EXPECT_DOUBLE_EQ(norms[1], 0.0);
  EXPECT_DOUBLE_EQ(norms[2], 25.0);
}

TEST(CsrMatrix, DefaultIsEmpty) {
  const CsrMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(CsrMatrix, RejectsWrongOffsetCount) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0F}), std::invalid_argument);
}

TEST(CsrMatrix, RejectsIndexValueMismatch) {
  EXPECT_THROW(CsrMatrix(1, 2, {0, 2}, {0, 1}, {1.0F}),
               std::invalid_argument);
}

TEST(CsrMatrix, RejectsOffsetNnzMismatch) {
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {0, 1}, {1.0F, 2.0F}),
               std::invalid_argument);
}

TEST(CsrMatrix, RejectsDecreasingOffsets) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 2, 1}, {0, 1}, {1.0F, 2.0F}),
               std::invalid_argument);
}

TEST(CsrMatrix, RejectsColumnOutOfRange) {
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {2}, {1.0F}), std::invalid_argument);
}

TEST(CsrMatrix, RejectsUnsortedColumnsWithinRow) {
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 0}, {1.0F, 2.0F}),
               std::invalid_argument);
}

TEST(CsrMatrix, RejectsDuplicateColumnsWithinRow) {
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {1, 1}, {1.0F, 2.0F}),
               std::invalid_argument);
}

TEST(CsrMatrix, MemoryBytesCountsAllArrays) {
  const auto m = small_csr();
  EXPECT_EQ(m.memory_bytes(),
            4 * sizeof(Offset) + 4 * sizeof(Index) + 4 * sizeof(Value));
}

// The columns of small_csr() are the rows of its transpose.
CsrMatrix small_transpose() { return transpose(small_csr()); }

TEST(TransposeRows, BasicAccessors) {
  const auto m = small_transpose();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.row_nnz(0), 1u);
  EXPECT_EQ(m.row_nnz(1), 1u);
  EXPECT_EQ(m.row_nnz(2), 2u);
}

TEST(TransposeRows, ColumnViewsAndLookup) {
  const auto m = small_transpose();
  const auto col2 = m.row(2);
  ASSERT_EQ(col2.nnz(), 2u);
  EXPECT_EQ(col2.indices[0], 0u);
  EXPECT_EQ(col2.indices[1], 2u);
  EXPECT_EQ(col2.values[0], 2.0F);
  EXPECT_EQ(col2.values[1], 4.0F);
  EXPECT_EQ(m.at(1, 2), 3.0F);
  EXPECT_EQ(m.at(1, 1), 0.0F);
}

TEST(TransposeRows, ColSquaredNorms) {
  const auto norms = small_transpose().row_squared_norms();
  ASSERT_EQ(norms.size(), 3u);
  EXPECT_DOUBLE_EQ(norms[0], 1.0);
  EXPECT_DOUBLE_EQ(norms[1], 9.0);
  EXPECT_DOUBLE_EQ(norms[2], 20.0);
}

// ---------------------------------------------------------------------------
// Bucketed coordinate layout: padded/unpadded round trips against the source
// matrix, nnz-class invariants, and the 64-byte alignment of bucket starts.

CsrMatrix ragged_csr() {
  // Row nnz spans several classes: 0 (empty), 1..8 (class 8), 9..16
  // (class 16), and 17+ (class 32), so multiple buckets form.
  util::Rng rng(99);
  CooBuilder coo(40, 64);
  const std::size_t row_nnz[] = {0, 1, 3, 8, 9, 12, 16, 17, 25, 31};
  for (Index r = 0; r < 40; ++r) {
    const std::size_t nnz = row_nnz[r % 10];
    Index c = static_cast<Index>(r % 3);
    for (std::size_t k = 0; k < nnz; ++k) {
      coo.add(r, c, static_cast<float>(rng.normal()));
      c += 1 + static_cast<Index>(rng.uniform() * 2.0);
    }
  }
  return coo_to_csr(coo);
}

TEST(BucketedLayout, UnpaddedRoundTripsSourceRows) {
  const auto csr = ragged_csr();
  const auto layout = BucketedLayout::from_rows(csr);
  ASSERT_EQ(layout.count(), csr.rows());
  EXPECT_EQ(layout.dim(), csr.cols());
  for (Index r = 0; r < csr.rows(); ++r) {
    const auto source = csr.row(r);
    const auto view = layout.unpadded(r);
    ASSERT_EQ(view.nnz(), source.nnz()) << "row " << r;
    for (std::size_t k = 0; k < source.nnz(); ++k) {
      EXPECT_EQ(view.indices[k], source.indices[k]);
      EXPECT_EQ(view.values[k], source.values[k]);
    }
  }
}

TEST(BucketedLayout, PaddedViewsRepeatLastIndexWithZeroValue) {
  const auto csr = ragged_csr();
  const auto layout = BucketedLayout::from_rows(csr);
  std::size_t padded_total = 0;
  for (Index r = 0; r < csr.rows(); ++r) {
    const auto source = csr.row(r);
    const auto padded = layout.padded(r);
    EXPECT_EQ(layout.nnz_of(r), source.nnz());
    EXPECT_EQ(padded.nnz(), layout.width_of(r));
    padded_total += padded.nnz();
    if (source.nnz() == 0) {
      EXPECT_EQ(layout.width_of(r), 0u) << "empty rows stay empty";
      continue;
    }
    EXPECT_EQ(layout.width_of(r) % 8, 0u);
    EXPECT_GE(layout.width_of(r), source.nnz());
    EXPECT_LT(layout.width_of(r), source.nnz() + 8);
    for (std::size_t k = 0; k < padded.nnz(); ++k) {
      if (k < source.nnz()) {
        EXPECT_EQ(padded.indices[k], source.indices[k]);
        EXPECT_EQ(padded.values[k], source.values[k]);
      } else {
        EXPECT_EQ(padded.indices[k], source.indices[source.nnz() - 1]);
        EXPECT_EQ(padded.values[k], 0.0F);
      }
    }
  }
  EXPECT_EQ(layout.padded_nnz(), padded_total);
  EXPECT_GE(layout.padded_nnz(), csr.nnz());
}

TEST(BucketedLayout, BucketsPartitionCoordinatesByNnzClass) {
  const auto csr = ragged_csr();
  const auto layout = BucketedLayout::from_rows(csr);
  ASSERT_GE(layout.num_buckets(), 3);
  std::vector<bool> seen(static_cast<std::size_t>(layout.count()), false);
  std::vector<Index> concatenated;
  std::size_t prev_class = 0;
  for (int b = 0; b < layout.num_buckets(); ++b) {
    const std::size_t cls = layout.bucket_class(b);
    EXPECT_GE(cls, 8u);
    EXPECT_EQ(cls & (cls - 1), 0u) << "classes are powers of two";
    EXPECT_GT(cls, prev_class) << "buckets ordered by ascending class";
    prev_class = cls;
    for (const Index j : layout.bucket_coords(b)) {
      EXPECT_FALSE(seen[j]) << "coordinate in two buckets";
      seen[j] = true;
      concatenated.push_back(j);
      const std::size_t nnz = layout.nnz_of(j);
      EXPECT_LE(nnz, cls);
      EXPECT_TRUE(cls == 8 || nnz > cls / 2)
          << "row " << j << " nnz " << nnz << " in class " << cls;
    }
  }
  // Every coordinate lives in exactly one bucket (empty coordinates join
  // the minimum class with width 0, keeping the id space total).
  for (Index j = 0; j < layout.count(); ++j) {
    EXPECT_TRUE(seen[j]) << "row " << j;
  }
  // storage_order() is the buckets' coordinates, one bucket after another.
  const auto order = layout.storage_order();
  EXPECT_EQ(std::vector<Index>(order.begin(), order.end()), concatenated);
}

TEST(BucketedLayout, BucketStartsAre64ByteAligned) {
  const auto csr = ragged_csr();
  const auto layout = BucketedLayout::from_rows(csr);
  for (int b = 0; b < layout.num_buckets(); ++b) {
    const auto coords = layout.bucket_coords(b);
    ASSERT_FALSE(coords.empty());
    const auto first = layout.padded(coords.front());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first.indices.data()) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first.values.data()) % 64, 0u);
  }
}

TEST(BucketedLayout, FromRowsOfTransposeMatchesColumns) {
  const auto csr = ragged_csr();
  const auto layout = BucketedLayout::from_rows(transpose(csr));
  ASSERT_EQ(layout.count(), csr.cols());
  EXPECT_EQ(layout.dim(), csr.rows());
  // Column c, scanned straight from the rows: (row, value) in row order.
  for (Index c = 0; c < csr.cols(); ++c) {
    std::vector<Index> rows;
    std::vector<Value> values;
    for (Index r = 0; r < csr.rows(); ++r) {
      const auto row = csr.row(r);
      for (std::size_t k = 0; k < row.nnz(); ++k) {
        if (row.indices[k] != c) continue;
        rows.push_back(r);
        values.push_back(row.values[k]);
      }
    }
    const auto view = layout.unpadded(c);
    ASSERT_EQ(view.nnz(), rows.size()) << "col " << c;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      EXPECT_EQ(view.indices[k], rows[k]);
      EXPECT_EQ(view.values[k], values[k]);
    }
  }
}

}  // namespace
}  // namespace tpa::sparse
