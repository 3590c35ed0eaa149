// Dense and sparse-dense vector kernels.
//
// The hot loops of every solver are the two passes over a sparse coordinate
// vector against the dense shared vector: the partial inner product
// ⟨y − w, a⟩ and the scatter w += a·Δ (the paper's "update shared vector"
// step).  Storage is float, accumulation is double, matching the paper's
// 32-bit data with numerically-safe objective evaluation.  The inner
// products may read a bucketed coordinate's padded view; the scatter needs
// distinct indices and reads its unpadded slice.
//
// Every entry point below dispatches to the kernel layer (kernels.hpp):
// the multi-accumulator vectorized implementation by default, the original
// scalar reference under TPA_KERNELS=scalar / set_kernel_backend().
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "linalg/kernels.hpp"
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
/// The indices must be distinct: a CSR row or a BucketedLayout::unpadded
/// slice, never a padded view.  The vectorized body stores repeated lanes
/// in lane order, so a pad entry's stale `old + 0` would overwrite the real
/// update of its index.  Debug builds assert strictly increasing indices.
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
/// The fp16 scatter takes distinct indices too (asserted in Debug builds).
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
/// allocation.  The dual duality gap takes Aβ as per-row dots over the
/// bucketed rows instead (RidgeProblem::dual_duality_gap).
void csr_matvec(const sparse::CsrMatrix& a, std::span<const float> x,
                std::span<float> y);

/// In-place y = Aᵀ·x (y.size() == a.cols()) by a serial scatter over the
/// rows.  The duality gap takes Aᵀα as per-column dots instead
/// (RidgeProblem::primal_duality_gap).
void csr_matvec_transposed(const sparse::CsrMatrix& a,
                           std::span<const float> x, std::span<float> y);

/// Entries per chunk of chunked_sum.
inline constexpr std::size_t kSumChunk = std::size_t{1} << 13;

/// The one summation order of every objective and duality gap: `chunk`
/// sums one kSumChunk-entry chunk [begin, end) of [0, count) from zero, and
/// the chunk partials are added in ascending chunk order.  The value is a
/// function of the data and kSumChunk alone; a non-null `pool` only
/// schedules the chunks, so serial and pooled sums agree bit for bit.
double chunked_sum(std::size_t count, util::ThreadPool* pool,
                   const std::function<double(std::size_t, std::size_t)>&
                       chunk);

/// ||x||² as a chunked_sum of per-chunk squared_norm.
double chunked_squared_norm(std::span<const float> x,
                            util::ThreadPool* pool = nullptr);

}  // namespace tpa::linalg
