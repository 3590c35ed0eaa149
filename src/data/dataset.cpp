#include "data/dataset.hpp"

#include <stdexcept>

#include "sparse/convert.hpp"

namespace tpa::data {

Dataset::Dataset(std::string name, sparse::CsrMatrix by_row,
                 std::vector<float> labels)
    : name_(std::move(name)),
      by_row_(std::move(by_row)),
      labels_(std::move(labels)) {
  if (labels_.size() != by_row_.rows()) {
    throw std::invalid_argument("Dataset: labels count must equal rows");
  }
  bucketed_rows_ = sparse::BucketedLayout::from_rows(by_row_);
  row_norms_ = by_row_.row_squared_norms();
}

const Dataset::Columns& Dataset::build_columns() const {
  std::call_once(columns_->once, [&] {
    // The columns are the rows of Aᵀ; the transpose only feeds the
    // bucketed layout and the norms.
    const auto transposed = sparse::transpose(by_row_);
    columns_->layout = sparse::BucketedLayout::from_rows(transposed);
    columns_->norms = transposed.row_squared_norms();
    columns_->ready.store(true, std::memory_order_release);
  });
  return *columns_;
}

std::size_t Dataset::memory_bytes() const noexcept {
  return by_row_.memory_bytes() + labels_.size() * sizeof(float);
}

std::size_t Dataset::resident_bytes() const noexcept {
  std::size_t bytes = by_row_.memory_bytes() + bucketed_rows_.memory_bytes() +
                      labels_.size() * sizeof(float) +
                      row_norms_.size() * sizeof(double);
  if (columns_->ready.load(std::memory_order_acquire)) {
    bytes += columns_->layout.memory_bytes() +
             columns_->norms.size() * sizeof(double);
  }
  return bytes;
}

}  // namespace tpa::data
