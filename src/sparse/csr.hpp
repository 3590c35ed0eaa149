// Compressed sparse row matrix.
//
// CSR gives O(1) access to a training example's feature vector (a row ā_n of
// A) and is the layout the paper uses on the GPU when solving the dual
// formulation of ridge regression.  It is the only compressed format here:
// the paper's CSC for the primal form is the CSR of Aᵀ (sparse::transpose),
// whose row m is the feature column a_m and whose row norms are ||a_m||².
#pragma once

#include <span>
#include <vector>

#include "sparse/types.hpp"

namespace tpa::sparse {

/// Immutable view of one sparse vector: parallel index / value spans.
struct SparseVectorView {
  std::span<const Index> indices;
  std::span<const Value> values;

  std::size_t nnz() const noexcept { return indices.size(); }
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Takes ownership of raw CSR arrays.  `row_offsets` has rows+1 entries,
  /// monotonically non-decreasing, with row_offsets.back() == nnz.  Column
  /// indices within a row must be strictly increasing and < cols.
  /// Violations throw std::invalid_argument.
  CsrMatrix(Index rows, Index cols, std::vector<Offset> row_offsets,
            std::vector<Index> col_indices, std::vector<Value> values);

  Index rows() const noexcept { return rows_; }
  Index cols() const noexcept { return cols_; }
  Offset nnz() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  std::span<const Offset> row_offsets() const noexcept { return row_offsets_; }
  std::span<const Index> col_indices() const noexcept { return col_indices_; }
  std::span<const Value> values() const noexcept { return values_; }

  /// Number of stored entries in row r.
  std::size_t row_nnz(Index r) const;

  /// View of row r's indices and values.
  SparseVectorView row(Index r) const;

  /// Squared L2 norm of every row, accumulated in double:  ||ā_n||².
  std::vector<double> row_squared_norms() const;

  /// Dense value lookup (binary search within the row); 0 if absent.
  Value at(Index r, Index c) const;

  /// Estimated memory footprint in bytes (offsets + indices + values).
  std::size_t memory_bytes() const noexcept;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Offset> row_offsets_{0};
  std::vector<Index> col_indices_;
  std::vector<Value> values_;
};

}  // namespace tpa::sparse
