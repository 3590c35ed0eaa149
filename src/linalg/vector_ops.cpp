#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace tpa::linalg {
namespace {

inline bool use_scalar() noexcept {
  return kernel_backend() == KernelBackend::kScalar;
}

// The scatter contract (vector_ops.hpp): distinct indices, checked as the
// CSR invariant, strictly increasing.
[[maybe_unused]] bool strictly_increasing(std::span<const sparse::Index> idx) {
  return std::adjacent_find(idx.begin(), idx.end(),
                            std::greater_equal<>()) == idx.end();
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
  assert(strictly_increasing(a.indices));
  if (use_scalar()) {
    scalar::sparse_axpy(alpha, a, dense);
  } else {
    vec::sparse_axpy(alpha, a, dense);
  }
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
  // The scalar scatter in both backends: no 16-bit gather or scatter exists.
  assert(strictly_increasing(a.indices));
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
                std::span<float> y) {
  assert(x.size() == a.cols());
  if (y.size() != a.rows()) {
    throw std::invalid_argument("csr_matvec: output span size != rows");
  }
  for (sparse::Index r = 0; r < a.rows(); ++r) {
    y[r] = static_cast<float>(sparse_dot(a.row(r), x));
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

double chunked_sum(std::size_t count, util::ThreadPool* pool,
                   const std::function<double(std::size_t, std::size_t)>&
                       chunk) {
  std::vector<double> partial((count + kSumChunk - 1) / kSumChunk, 0.0);
  const auto run_chunks = [&](std::size_t first, std::size_t last) {
    for (std::size_t c = first; c < last; ++c) {
      const std::size_t begin = c * kSumChunk;
      partial[c] = chunk(begin, std::min(count, begin + kSumChunk));
    }
  };
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for_chunks(partial.size(), run_chunks);
  } else {
    run_chunks(0, partial.size());
  }
  return std::accumulate(partial.begin(), partial.end(), 0.0);
}

double chunked_squared_norm(std::span<const float> x,
                            util::ThreadPool* pool) {
  return chunked_sum(x.size(), pool, [&](std::size_t begin, std::size_t end) {
    return squared_norm(x.subspan(begin, end - begin));
  });
}

}  // namespace tpa::linalg
