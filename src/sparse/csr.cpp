#include "sparse/csr.hpp"

#include <algorithm>
#include <stdexcept>

namespace tpa::sparse {
namespace {

void validate_csr(Index rows, Index cols,
                  const std::vector<Offset>& row_offsets,
                  const std::vector<Index>& col_indices,
                  const std::vector<Value>& values) {
  if (row_offsets.size() != static_cast<std::size_t>(rows) + 1) {
    throw std::invalid_argument("CsrMatrix: row_offsets must have rows+1 entries");
  }
  if (col_indices.size() != values.size()) {
    throw std::invalid_argument("CsrMatrix: index/value length mismatch");
  }
  if (row_offsets.front() != 0 || row_offsets.back() != values.size()) {
    throw std::invalid_argument("CsrMatrix: offset range does not match nnz");
  }
  for (Index r = 0; r < rows; ++r) {
    if (row_offsets[r] > row_offsets[r + 1]) {
      throw std::invalid_argument("CsrMatrix: row_offsets must be non-decreasing");
    }
    Index prev = 0;
    bool first = true;
    for (Offset k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      const Index c = col_indices[k];
      if (c >= cols) {
        throw std::invalid_argument("CsrMatrix: column index out of range");
      }
      if (!first && c <= prev) {
        throw std::invalid_argument(
            "CsrMatrix: column indices within a row must strictly increase");
      }
      prev = c;
      first = false;
    }
  }
}

}  // namespace

CsrMatrix::CsrMatrix(Index rows, Index cols, std::vector<Offset> row_offsets,
                     std::vector<Index> col_indices, std::vector<Value> values)
    : rows_(rows),
      cols_(cols),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)),
      values_(std::move(values)) {
  validate_csr(rows_, cols_, row_offsets_, col_indices_, values_);
}

std::size_t CsrMatrix::row_nnz(Index r) const {
  return static_cast<std::size_t>(row_offsets_[r + 1] - row_offsets_[r]);
}

SparseVectorView CsrMatrix::row(Index r) const {
  const auto begin = static_cast<std::size_t>(row_offsets_[r]);
  const auto count = row_nnz(r);
  return SparseVectorView{
      std::span<const Index>(col_indices_).subspan(begin, count),
      std::span<const Value>(values_).subspan(begin, count)};
}

std::vector<double> CsrMatrix::row_squared_norms() const {
  std::vector<double> norms(rows_, 0.0);
  for (std::size_t r = 0; r < norms.size(); ++r) {
    double acc = 0.0;
    for (Offset k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const double v = values_[k];
      acc += v * v;
    }
    norms[r] = acc;
  }
  return norms;
}

Value CsrMatrix::at(Index r, Index c) const {
  const auto view = row(r);
  const auto it = std::lower_bound(view.indices.begin(), view.indices.end(), c);
  if (it == view.indices.end() || *it != c) return 0.0F;
  const auto pos = static_cast<std::size_t>(it - view.indices.begin());
  return view.values[pos];
}

std::size_t CsrMatrix::memory_bytes() const noexcept {
  return row_offsets_.size() * sizeof(Offset) +
         col_indices_.size() * sizeof(Index) + values_.size() * sizeof(Value);
}

}  // namespace tpa::sparse
