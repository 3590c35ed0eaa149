#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace tpa::linalg {
namespace {

inline bool use_scalar() noexcept {
  return kernel_backend() == KernelBackend::kScalar;
}

}  // namespace

double dot(std::span<const float> x, std::span<const float> y) {
  return use_scalar() ? scalar::dot(x, y) : vec::dot(x, y);
}

double dot(std::span<const double> x, std::span<const double> y) {
  return use_scalar() ? scalar::dot(x, y) : vec::dot(x, y);
}

double squared_norm(std::span<const float> x) { return dot(x, x); }
double squared_norm(std::span<const double> x) { return dot(x, x); }

void axpy(double alpha, std::span<const float> x, std::span<float> y) {
  // The scalar reference in both backends: the float axpy is a pure
  // streaming RMW the compiler already vectorises from the plain loop, and
  // unrolling it measured no faster (0.98x).
  scalar::axpy(alpha, x, y);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (use_scalar()) {
    scalar::axpy(alpha, x, y);
  } else {
    vec::axpy(alpha, x, y);
  }
}

void scale(std::span<float> x, double alpha) {
  for (auto& v : x) v = static_cast<float>(v * alpha);
}

double sparse_dot(const SparseVectorView& a, std::span<const float> dense) {
  return use_scalar() ? scalar::sparse_dot(a, dense)
                      : vec::sparse_dot(a, dense);
}

double sparse_residual_dot(const SparseVectorView& a,
                           std::span<const float> target,
                           std::span<const float> dense) {
  return use_scalar() ? scalar::sparse_residual_dot(a, target, dense)
                      : vec::sparse_residual_dot(a, target, dense);
}

void sparse_axpy(double alpha, const SparseVectorView& a,
                 std::span<float> dense) {
  // The scalar reference in both backends: the scatter must stay an
  // in-order RMW (no batching is legal under padded duplicate indices), so
  // unrolling only amortises loop control; it measured within noise of
  // scalar (≤1.03x).
  scalar::sparse_axpy(alpha, a, dense);
}

void add_diff(std::span<float> w, std::span<const float> replica,
              std::span<const float> base) {
  // The scalar reference in both backends: element-wise, and the 4-way
  // unrolled body measured within noise of it (micro_kernels ReplicaMerge).
  scalar::add_diff(w, replica, base);
}

double sparse_dot(const SparseVectorView& a, std::span<const Half> dense) {
  return use_scalar() ? scalar::sparse_dot(a, dense)
                      : vec::sparse_dot(a, dense);
}

double sparse_residual_dot(const SparseVectorView& a,
                           std::span<const float> target,
                           std::span<const Half> dense) {
  return use_scalar() ? scalar::sparse_residual_dot(a, target, dense)
                      : vec::sparse_residual_dot(a, target, dense);
}

void sparse_axpy(double alpha, const SparseVectorView& a,
                 std::span<Half> dense) {
  // The scalar scatter in both backends, as for the float overload.
  scalar::sparse_axpy(alpha, a, dense);
}

void add_diff(std::span<float> w, std::span<const Half> replica,
              std::span<const Half> base) {
  if (use_scalar()) {
    scalar::add_diff(w, replica, base);
  } else {
    vec::add_diff(w, replica, base);
  }
}

double max_abs_diff(std::span<const float> x, std::span<const float> y) {
  assert(x.size() == y.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(x[i]) - y[i]));
  }
  return worst;
}

double distance(std::span<const float> x, std::span<const float> y) {
  assert(x.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = static_cast<double>(x[i]) - y[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

std::vector<float> csr_matvec(const sparse::CsrMatrix& a,
                              std::span<const float> x) {
  std::vector<float> y(a.rows(), 0.0F);
  csr_matvec(a, x, y);
  return y;
}

std::vector<float> csr_matvec_transposed(const sparse::CsrMatrix& a,
                                         std::span<const float> x) {
  std::vector<float> y(a.cols(), 0.0F);
  csr_matvec_transposed(a, x, y);
  return y;
}

void csr_matvec(const sparse::CsrMatrix& a, std::span<const float> x,
                std::span<float> y, util::ThreadPool* pool) {
  assert(x.size() == a.cols());
  if (y.size() != a.rows()) {
    throw std::invalid_argument("csr_matvec: output span size != rows");
  }
  const auto run_rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      y[r] = static_cast<float>(
          sparse_dot(a.row(static_cast<sparse::Index>(r)), x));
    }
  };
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for_chunks(y.size(), run_rows);
  } else {
    run_rows(0, y.size());
  }
}

void csr_matvec_transposed(const sparse::CsrMatrix& a,
                           std::span<const float> x, std::span<float> y) {
  assert(x.size() == a.rows());
  if (y.size() != a.cols()) {
    throw std::invalid_argument(
        "csr_matvec_transposed: output span size != cols");
  }
  std::fill(y.begin(), y.end(), 0.0F);
  for (sparse::Index r = 0; r < a.rows(); ++r) {
    sparse_axpy(x[r], a.row(r), y);
  }
}

void csc_matvec_transposed(const sparse::CscMatrix& a,
                           std::span<const float> x, std::span<float> y,
                           util::ThreadPool* pool) {
  assert(x.size() == a.rows());
  if (y.size() != a.cols()) {
    throw std::invalid_argument(
        "csc_matvec_transposed: output span size != cols");
  }
  const auto run_cols = [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      y[c] = static_cast<float>(
          sparse_dot(a.col(static_cast<sparse::Index>(c)), x));
    }
  };
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for_chunks(y.size(), run_cols);
  } else {
    run_cols(0, y.size());
  }
}

}  // namespace tpa::linalg
