// Compressed sparse column matrix.
//
// CSC gives O(1) access to a feature column a_m of A and is the layout the
// paper uses on the GPU when solving the primal formulation of ridge
// regression.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace tpa::sparse {

class CscMatrix {
 public:
  CscMatrix() = default;

  /// Takes ownership of raw CSC arrays.  `col_offsets` has cols+1 entries;
  /// row indices within a column must strictly increase and be < rows.
  /// Violations throw std::invalid_argument.
  CscMatrix(Index rows, Index cols, std::vector<Offset> col_offsets,
            std::vector<Index> row_indices, std::vector<Value> values);

  Index rows() const noexcept { return rows_; }
  Index cols() const noexcept { return cols_; }
  Offset nnz() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  std::span<const Offset> col_offsets() const noexcept { return col_offsets_; }
  std::span<const Index> row_indices() const noexcept { return row_indices_; }
  std::span<const Value> values() const noexcept { return values_; }

  std::size_t col_nnz(Index c) const;

  /// View of column c's indices and values.
  SparseVectorView col(Index c) const;

  /// Squared L2 norm of every column, accumulated in double:  ||a_m||².
  std::vector<double> col_squared_norms() const;

  /// Dense value lookup (binary search within the column); 0 if absent.
  Value at(Index r, Index c) const;

  std::size_t memory_bytes() const noexcept;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Offset> col_offsets_{0};
  std::vector<Index> row_indices_;
  std::vector<Value> values_;
};

}  // namespace tpa::sparse
