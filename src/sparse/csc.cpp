#include "sparse/csc.hpp"

#include <algorithm>
#include <stdexcept>

namespace tpa::sparse {
namespace {

void validate_csc(Index rows, Index cols,
                  const std::vector<Offset>& col_offsets,
                  const std::vector<Index>& row_indices,
                  const std::vector<Value>& values) {
  if (col_offsets.size() != static_cast<std::size_t>(cols) + 1) {
    throw std::invalid_argument("CscMatrix: col_offsets must have cols+1 entries");
  }
  if (row_indices.size() != values.size()) {
    throw std::invalid_argument("CscMatrix: index/value length mismatch");
  }
  if (col_offsets.front() != 0 || col_offsets.back() != values.size()) {
    throw std::invalid_argument("CscMatrix: offset range does not match nnz");
  }
  for (Index c = 0; c < cols; ++c) {
    if (col_offsets[c] > col_offsets[c + 1]) {
      throw std::invalid_argument("CscMatrix: col_offsets must be non-decreasing");
    }
    Index prev = 0;
    bool first = true;
    for (Offset k = col_offsets[c]; k < col_offsets[c + 1]; ++k) {
      const Index r = row_indices[k];
      if (r >= rows) {
        throw std::invalid_argument("CscMatrix: row index out of range");
      }
      if (!first && r <= prev) {
        throw std::invalid_argument(
            "CscMatrix: row indices within a column must strictly increase");
      }
      prev = r;
      first = false;
    }
  }
}

}  // namespace

CscMatrix::CscMatrix(Index rows, Index cols, std::vector<Offset> col_offsets,
                     std::vector<Index> row_indices, std::vector<Value> values)
    : rows_(rows),
      cols_(cols),
      col_offsets_(std::move(col_offsets)),
      row_indices_(std::move(row_indices)),
      values_(std::move(values)) {
  validate_csc(rows_, cols_, col_offsets_, row_indices_, values_);
}

std::size_t CscMatrix::col_nnz(Index c) const {
  return static_cast<std::size_t>(col_offsets_[c + 1] - col_offsets_[c]);
}

SparseVectorView CscMatrix::col(Index c) const {
  const auto begin = static_cast<std::size_t>(col_offsets_[c]);
  const auto count = col_nnz(c);
  return SparseVectorView{
      std::span<const Index>(row_indices_).subspan(begin, count),
      std::span<const Value>(values_).subspan(begin, count)};
}

std::vector<double> CscMatrix::col_squared_norms() const {
  std::vector<double> norms(cols_, 0.0);
  for (std::size_t c = 0; c < norms.size(); ++c) {
    double acc = 0.0;
    for (Offset k = col_offsets_[c]; k < col_offsets_[c + 1]; ++k) {
      const double v = values_[k];
      acc += v * v;
    }
    norms[c] = acc;
  }
  return norms;
}

Value CscMatrix::at(Index r, Index c) const {
  const auto view = col(c);
  const auto it = std::lower_bound(view.indices.begin(), view.indices.end(), r);
  if (it == view.indices.end() || *it != r) return 0.0F;
  const auto pos = static_cast<std::size_t>(it - view.indices.begin());
  return view.values[pos];
}

std::size_t CscMatrix::memory_bytes() const noexcept {
  return col_offsets_.size() * sizeof(Offset) +
         row_indices_.size() * sizeof(Index) + values_.size() * sizeof(Value);
}

}  // namespace tpa::sparse
