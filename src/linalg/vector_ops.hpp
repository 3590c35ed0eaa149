// Dense and sparse-dense vector kernels.
//
// The hot loops of every solver are the two passes over a sparse coordinate
// vector against the dense shared vector: the partial inner product
// ⟨y − w, a⟩ and the scatter w += a·Δ (the paper's "update shared vector"
// step).  Storage is float, accumulation is double, matching the paper's
// 32-bit data with numerically-safe objective evaluation.
//
// Every entry point below dispatches to the kernel layer (kernels.hpp):
// the multi-accumulator vectorized implementation by default, the original
// scalar reference under TPA_KERNELS=scalar / set_kernel_backend().
#pragma once

#include <span>
#include <vector>

#include "linalg/kernels.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"

namespace tpa::util {
class ThreadPool;
}

namespace tpa::linalg {

using sparse::SparseVectorView;

/// ⟨x, y⟩ accumulated in double.
double dot(std::span<const float> x, std::span<const float> y);
double dot(std::span<const double> x, std::span<const double> y);

/// ||x||² accumulated in double.
double squared_norm(std::span<const float> x);
double squared_norm(std::span<const double> x);

/// y += alpha * x (element-wise, sizes must match).
void axpy(double alpha, std::span<const float> x, std::span<float> y);
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha.
void scale(std::span<float> x, double alpha);

/// Σₖ a.values[k] * dense[a.indices[k]]  — sparse·dense inner product.
double sparse_dot(const SparseVectorView& a, std::span<const float> dense);

/// Σₖ a.values[k] * (target[a.indices[k]] - dense[a.indices[k]]) — fused
/// residual inner product ⟨target − dense, a⟩ used by the coordinate update.
double sparse_residual_dot(const SparseVectorView& a,
                           std::span<const float> target,
                           std::span<const float> dense);

/// dense[a.indices[k]] += alpha * a.values[k] — sparse scatter-add.
void sparse_axpy(double alpha, const SparseVectorView& a,
                 std::span<float> dense);

/// w[i] += replica[i] − base[i], element-wise in double — the replica-merge
/// primitive: folds one replica's delta against its snapshot `base` into the
/// global vector.  replica/base may be longer than w (padded storage).
void add_diff(std::span<float> w, std::span<const float> replica,
              std::span<const float> base);

/// fp16-storage overloads of the shared-vector kernels (DESIGN.md §16).
/// They dispatch to the Half instantiation of the same kernel bodies as the
/// float overloads above: elements widen to fp32 exactly before arithmetic,
/// accumulation stays fp64, and stores narrow with round-to-nearest-even.
double sparse_dot(const SparseVectorView& a, std::span<const Half> dense);
double sparse_residual_dot(const SparseVectorView& a,
                           std::span<const float> target,
                           std::span<const Half> dense);
void sparse_axpy(double alpha, const SparseVectorView& a,
                 std::span<Half> dense);
void add_diff(std::span<float> w, std::span<const Half> replica,
              std::span<const Half> base);

/// max_i |x_i - y_i|.
double max_abs_diff(std::span<const float> x, std::span<const float> y);

/// Euclidean distance ||x - y||.
double distance(std::span<const float> x, std::span<const float> y);

/// y = A·x for CSR A (double accumulation, float output).
std::vector<float> csr_matvec(const sparse::CsrMatrix& a,
                              std::span<const float> x);

/// y = Aᵀ·x for CSR A.
std::vector<float> csr_matvec_transposed(const sparse::CsrMatrix& a,
                                         std::span<const float> x);

/// In-place y = A·x into a caller-provided span (y.size() == a.rows()); no
/// allocation.  Rows are independent, so a non-null `pool` splits them into
/// contiguous chunks — results are identical to the serial path.
void csr_matvec(const sparse::CsrMatrix& a, std::span<const float> x,
                std::span<float> y, util::ThreadPool* pool = nullptr);

/// In-place y = Aᵀ·x (y.size() == a.cols()).  The scatter form is inherently
/// serial; prefer csc_matvec_transposed when a column-oriented copy exists.
void csr_matvec_transposed(const sparse::CsrMatrix& a,
                           std::span<const float> x, std::span<float> y);

/// In-place y = Aᵀ·x using the CSC orientation: y[c] = ⟨col_c, x⟩.  Columns
/// are independent, so a non-null `pool` parallelises race-free with results
/// identical to the serial path.
void csc_matvec_transposed(const sparse::CscMatrix& a,
                           std::span<const float> x, std::span<float> y,
                           util::ThreadPool* pool = nullptr);

}  // namespace tpa::linalg
