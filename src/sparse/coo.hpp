// Coordinate-format builder: the mutable staging area from which the
// generators build their CSR (sparse::coo_to_csr).  Column access is the
// CSR of Aᵀ (sparse::transpose), never a second format.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sparse/types.hpp"

namespace tpa::sparse {

class CooBuilder {
 public:
  /// Creates a builder for a rows x cols matrix.
  CooBuilder(Index rows, Index cols);

  Index rows() const noexcept { return rows_; }
  Index cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return entries_.size(); }
  std::span<const Triplet> entries() const noexcept { return entries_; }

  void reserve(std::size_t nnz) { entries_.reserve(nnz); }

  /// Appends one entry.  Out-of-range coordinates are a programming error
  /// (checked by assert); duplicate coordinates are allowed and are summed
  /// by `coalesce()` or during conversion.
  void add(Index row, Index col, Value value);

  /// Sorts entries by (row, col) and sums duplicates; drops exact zeros that
  /// result from cancellation.
  void coalesce();

  /// Removes every stored entry but keeps the dimensions.
  void clear() { entries_.clear(); }

 private:
  Index rows_;
  Index cols_;
  std::vector<Triplet> entries_;
};

}  // namespace tpa::sparse
