// A training dataset as the solvers consume it: the matrix held once per
// orientation a run uses, the label vector, and cached squared norms.
//
//   * Rows, always: the CSR (the loaders', scorer's and gap's view), its
//     bucketed layout (the dual sweeps' view) and the row norms.
//   * Columns, on first use: the first primal access — bucketed_cols() or
//     col_squared_norms(), which a primal solver's constructor makes —
//     builds the bucketed columns and the column norms once, under a
//     std::once_flag, from the rows of Aᵀ (sparse::transpose of the CSR),
//     which are dropped straight after.  A dual run never pays for them.
//     Copies of a Dataset share that build.
//
// A Dataset also carries optional *paper-scale* statistics: the N, M and nnz
// of the real dataset a generator stands in for (webspam, criteo).  The
// timing models evaluate simulated runtimes at paper scale while convergence
// runs on the scaled matrix — see DESIGN.md §5.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sparse/bucketed.hpp"
#include "sparse/csr.hpp"

namespace tpa::data {

using sparse::Index;
using sparse::Offset;

/// Statistics of the full-size dataset that a scaled generator emulates.
struct PaperScale {
  std::string name;           // e.g. "webspam"
  std::uint64_t examples = 0;
  std::uint64_t features = 0;
  std::uint64_t nnz = 0;
};

class Dataset {
 public:
  Dataset() = default;

  /// Builds the row orientation from a row-oriented matrix and labels (one
  /// per row).  Throws std::invalid_argument on a label count mismatch.
  Dataset(std::string name, sparse::CsrMatrix by_row,
          std::vector<float> labels);

  const std::string& name() const noexcept { return name_; }

  Index num_examples() const noexcept { return by_row_.rows(); }
  Index num_features() const noexcept { return by_row_.cols(); }
  Offset nnz() const noexcept { return by_row_.nnz(); }

  const sparse::CsrMatrix& by_row() const noexcept { return by_row_; }
  std::span<const float> labels() const noexcept { return labels_; }

  /// Bucketed (aligned, padded, nnz-class-grouped) copies of the two
  /// orientations — the layout the solver hot paths consume (DESIGN.md §9).
  /// The columns are built on the first call (thread-safe); after that the
  /// call is one acquire load.
  const sparse::BucketedLayout& bucketed_rows() const noexcept {
    return bucketed_rows_;
  }
  const sparse::BucketedLayout& bucketed_cols() const {
    return columns().layout;
  }

  /// ||ā_n||² for every example row (dual updates).
  std::span<const double> row_squared_norms() const noexcept {
    return row_norms_;
  }
  /// ||a_m||² for every feature column (primal updates); builds the columns
  /// on first use like bucketed_cols().
  std::span<const double> col_squared_norms() const {
    return columns().norms;
  }

  const std::optional<PaperScale>& paper_scale() const noexcept {
    return paper_scale_;
  }
  void set_paper_scale(PaperScale scale) { paper_scale_ = std::move(scale); }

  /// Combined CSR+labels bytes (the footprint a GPU worker would hold).
  std::size_t memory_bytes() const noexcept;

  /// Bytes this Dataset holds resident: the CSR, the bucketed rows, labels
  /// and row norms, plus the bucketed columns and column norms once a
  /// primal path has built them.  The out-of-core budget accounting charges
  /// shards at this figure, not at raw CSR size.
  std::size_t resident_bytes() const noexcept;

 private:
  // The once-built column orientation, shared by copies.  `ready` is set
  // after the build, so the accessors' fast path is one acquire load;
  // `once` serialises the build itself.
  struct Columns {
    std::once_flag once;
    std::atomic<bool> ready{false};
    sparse::BucketedLayout layout;
    std::vector<double> norms;
  };

  const Columns& columns() const {
    return columns_->ready.load(std::memory_order_acquire) ? *columns_
                                                           : build_columns();
  }
  const Columns& build_columns() const;

  std::string name_;
  sparse::CsrMatrix by_row_;
  sparse::BucketedLayout bucketed_rows_;
  std::vector<float> labels_;
  std::vector<double> row_norms_;
  std::optional<PaperScale> paper_scale_;
  std::shared_ptr<Columns> columns_ = std::make_shared<Columns>();
};

}  // namespace tpa::data
