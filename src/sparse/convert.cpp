#include "sparse/convert.hpp"

#include <stdexcept>

namespace tpa::sparse {
namespace {

/// Shared counting-sort core: scatters (major, minor, value) entries that are
/// provided via a generic visitor into compressed-major arrays.
struct CompressedArrays {
  std::vector<Offset> offsets;
  std::vector<Index> indices;
  std::vector<Value> values;
};

template <typename ForEachEntry>
CompressedArrays compress(Index major_dim, Offset nnz,
                          const ForEachEntry& for_each_entry) {
  CompressedArrays out;
  out.offsets.assign(static_cast<std::size_t>(major_dim) + 1, 0);
  out.indices.resize(nnz);
  out.values.resize(nnz);

  // Pass 1: counts per major index.
  for_each_entry([&](Index major, Index /*minor*/, Value /*v*/) {
    ++out.offsets[static_cast<std::size_t>(major) + 1];
  });
  for (std::size_t i = 1; i < out.offsets.size(); ++i) {
    out.offsets[i] += out.offsets[i - 1];
  }

  // Pass 2: scatter into place using a moving cursor per major index.
  std::vector<Offset> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for_each_entry([&](Index major, Index minor, Value v) {
    const Offset pos = cursor[major]++;
    out.indices[pos] = minor;
    out.values[pos] = v;
  });
  return out;
}

}  // namespace

CsrMatrix coo_to_csr(const CooBuilder& coo) {
  CooBuilder sorted = coo;
  sorted.coalesce();  // also sorts by (row, col), giving increasing columns
  auto arrays = compress(
      sorted.rows(), sorted.nnz(), [&](const auto& visit) {
        for (const auto& t : sorted.entries()) visit(t.row, t.col, t.value);
      });
  return CsrMatrix(sorted.rows(), sorted.cols(), std::move(arrays.offsets),
                   std::move(arrays.indices), std::move(arrays.values));
}

CsrMatrix transpose(const CsrMatrix& csr) {
  auto arrays = compress(
      csr.cols(), csr.nnz(), [&](const auto& visit) {
        for (Index r = 0; r < csr.rows(); ++r) {
          const auto view = csr.row(r);
          for (std::size_t k = 0; k < view.nnz(); ++k) {
            visit(view.indices[k], r, view.values[k]);
          }
        }
      });
  return CsrMatrix(csr.cols(), csr.rows(), std::move(arrays.offsets),
                   std::move(arrays.indices), std::move(arrays.values));
}

std::vector<double> to_dense(const CsrMatrix& csr) {
  const auto total = static_cast<std::size_t>(csr.rows()) *
                     static_cast<std::size_t>(csr.cols());
  if (total > (1ULL << 26)) {
    throw std::length_error("to_dense: matrix too large to densify");
  }
  std::vector<double> dense(total, 0.0);
  for (Index r = 0; r < csr.rows(); ++r) {
    const auto view = csr.row(r);
    for (std::size_t k = 0; k < view.nnz(); ++k) {
      dense[static_cast<std::size_t>(r) * csr.cols() + view.indices[k]] =
          view.values[k];
    }
  }
  return dense;
}

}  // namespace tpa::sparse
