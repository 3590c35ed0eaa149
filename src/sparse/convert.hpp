// Format conversions: COO to CSR, transpose, densify.
//
// CSR is the one compressed format.  A column view of A is a row of Aᵀ, so
// the primal coordinates' slices come from transpose(); both builders are
// single-pass counting sorts, O(nnz + rows + cols).
#pragma once

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace tpa::sparse {

/// Builds a CSR matrix from coordinate entries.  Duplicates are summed.
CsrMatrix coo_to_csr(const CooBuilder& coo);

/// Transpose: returns B = Aᵀ in CSR form.  Row m of B is column m of A,
/// its row indices strictly increasing; every stored entry is kept.
CsrMatrix transpose(const CsrMatrix& csr);

/// Materialises the matrix as a dense row-major buffer (tests / tiny data
/// only; throws std::length_error beyond 64M entries).
std::vector<double> to_dense(const CsrMatrix& csr);

}  // namespace tpa::sparse
