// Dense / sparse-dense vector kernels against straightforward references.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "sparse/convert.hpp"
#include "util/rng.hpp"

namespace tpa::linalg {
namespace {

TEST(VectorOps, DotFloatAccumulatesInDouble) {
  const std::vector<float> x{1.0F, 2.0F, 3.0F};
  const std::vector<float> y{4.0F, -5.0F, 6.0F};
  EXPECT_DOUBLE_EQ(dot(std::span<const float>(x), y), 4.0 - 10.0 + 18.0);
}

TEST(VectorOps, DotDouble) {
  const std::vector<double> x{0.5, 0.25};
  const std::vector<double> y{2.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(std::span<const double>(x), y), 2.0);
}

TEST(VectorOps, EmptyDotIsZero) {
  EXPECT_EQ(dot(std::span<const float>{}, std::span<const float>{}), 0.0);
}

TEST(VectorOps, SquaredNorm) {
  const std::vector<float> x{3.0F, 4.0F};
  EXPECT_DOUBLE_EQ(squared_norm(std::span<const float>(x)), 25.0);
}

TEST(VectorOps, AxpyFloat) {
  const std::vector<float> x{1.0F, 2.0F};
  std::vector<float> y{10.0F, 20.0F};
  axpy(2.0, x, y);
  EXPECT_FLOAT_EQ(y[0], 12.0F);
  EXPECT_FLOAT_EQ(y[1], 24.0F);
}

TEST(VectorOps, AxpyDouble) {
  const std::vector<double> x{1.0, -1.0};
  std::vector<double> y{0.0, 0.0};
  axpy(-3.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], -3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(VectorOps, Scale) {
  std::vector<float> x{2.0F, -4.0F};
  scale(x, 0.5);
  EXPECT_FLOAT_EQ(x[0], 1.0F);
  EXPECT_FLOAT_EQ(x[1], -2.0F);
}

sparse::SparseVectorView make_view(const std::vector<sparse::Index>& idx,
                                   const std::vector<float>& val) {
  return sparse::SparseVectorView{idx, val};
}

TEST(SparseOps, SparseDot) {
  const std::vector<sparse::Index> idx{0, 2};
  const std::vector<float> val{2.0F, 3.0F};
  const std::vector<float> dense{1.0F, 9.0F, -1.0F};
  EXPECT_DOUBLE_EQ(sparse_dot(make_view(idx, val), dense), 2.0 - 3.0);
}

TEST(SparseOps, SparseResidualDot) {
  const std::vector<sparse::Index> idx{1};
  const std::vector<float> val{4.0F};
  const std::vector<float> target{0.0F, 10.0F};
  const std::vector<float> dense{0.0F, 7.0F};
  EXPECT_DOUBLE_EQ(sparse_residual_dot(make_view(idx, val), target, dense),
                   4.0 * 3.0);
}

TEST(SparseOps, SparseAxpyScattersOnlyTouchedEntries) {
  const std::vector<sparse::Index> idx{0, 3};
  const std::vector<float> val{1.0F, -2.0F};
  std::vector<float> dense{1.0F, 1.0F, 1.0F, 1.0F};
  sparse_axpy(0.5, make_view(idx, val), dense);
  EXPECT_FLOAT_EQ(dense[0], 1.5F);
  EXPECT_FLOAT_EQ(dense[1], 1.0F);
  EXPECT_FLOAT_EQ(dense[2], 1.0F);
  EXPECT_FLOAT_EQ(dense[3], 0.0F);
}

// Scalar-vs-vectorized backend equivalence, per the DESIGN.md §9 contract:
// element-wise kernels (axpy, sparse_axpy) are bit-identical because both
// backends evaluate the same per-element expression; reductions may
// reassociate, so they agree only to the last ULPs of the double
// accumulator.  Sizes straddle the unroll widths (8/16) so main loops and
// scalar tails are both exercised.
class KernelEquivalence : public ::testing::TestWithParam<std::size_t> {
 protected:
  // n * eps of the magnitude sum bounds the reassociation error; the 64x
  // headroom keeps the bound meaningful rather than flaky.
  static double reduction_tol(double abs_sum, std::size_t n) {
    return 64.0 * static_cast<double>(n + 1) *
           std::numeric_limits<double>::epsilon() * (abs_sum + 1.0);
  }
};

TEST_P(KernelEquivalence, DenseKernelsMatchScalarReference) {
  const std::size_t n = GetParam();
  util::Rng rng(0xC0FFEE + n);
  std::vector<float> xf(n);
  std::vector<float> yf(n);
  std::vector<double> xd(n);
  std::vector<double> yd(n);
  double abs_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    xf[i] = static_cast<float>(rng.normal());
    yf[i] = static_cast<float>(rng.normal());
    xd[i] = rng.normal();
    yd[i] = rng.normal();
    abs_sum += std::abs(static_cast<double>(xf[i]) * yf[i]);
  }

  EXPECT_NEAR(vec::dot(std::span<const float>(xf), yf),
              scalar::dot(std::span<const float>(xf), yf),
              reduction_tol(abs_sum, n));
  EXPECT_NEAR(vec::dot(std::span<const double>(xd), yd),
              scalar::dot(std::span<const double>(xd), yd),
              reduction_tol(abs_sum, n));

  // axpy is element-wise: exact equality, not tolerance.  (The fp32 axpy
  // has only the scalar body.)
  std::vector<double> outd_scalar = yd;
  std::vector<double> outd_vec = yd;
  scalar::axpy(-1.93, xd, outd_scalar);
  vec::axpy(-1.93, xd, outd_vec);
  EXPECT_EQ(outd_scalar, outd_vec);
}

TEST_P(KernelEquivalence, SparseKernelsMatchScalarReference) {
  const std::size_t nnz = GetParam();
  const std::size_t dim = 4 * nnz + 8;
  util::Rng rng(0xBEEF + nnz);
  std::vector<sparse::Index> idx(nnz);
  std::vector<float> val(nnz);
  std::vector<float> dense(dim);
  std::vector<float> target(dim);
  for (auto& v : dense) v = static_cast<float>(rng.normal());
  for (auto& v : target) v = static_cast<float>(rng.normal());
  sparse::Index at = 0;
  double abs_sum = 0.0;
  for (std::size_t k = 0; k < nnz; ++k) {
    at += 1 + static_cast<sparse::Index>(rng.uniform() * 3.0);
    idx[k] = at;
    val[k] = static_cast<float>(rng.normal());
    abs_sum += std::abs(static_cast<double>(val[k]));
  }
  const auto view = make_view(idx, val);

  EXPECT_NEAR(vec::sparse_dot<float>(view, dense),
              scalar::sparse_dot<float>(view, dense),
              reduction_tol(4.0 * abs_sum, nnz));
  EXPECT_NEAR(vec::sparse_residual_dot<float>(view, target, dense),
              scalar::sparse_residual_dot<float>(view, target, dense),
              reduction_tol(8.0 * abs_sum, nnz));
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelEquivalence,
                         ::testing::Values(0u, 1u, 3u, 7u, 8u, 9u, 15u, 16u,
                                           17u, 31u, 64u, 100u, 515u));

// Bucketed padding repeats a coordinate's last index with value zero.  The
// kernels must treat those entries as exact no-ops: zero contribution to the
// reductions, a +-0.0 scatter into an already-touched slot.
TEST(KernelBackends, PaddedDuplicateIndicesAreExactNoOps) {
  const std::vector<sparse::Index> real_idx{1, 4, 9};
  const std::vector<float> real_val{0.5F, -2.0F, 3.25F};
  std::vector<sparse::Index> padded_idx = real_idx;
  std::vector<float> padded_val = real_val;
  while (padded_idx.size() % 8 != 0) {
    padded_idx.push_back(real_idx.back());
    padded_val.push_back(0.0F);
  }
  const auto real = make_view(real_idx, real_val);
  const auto padded = make_view(padded_idx, padded_val);
  std::vector<float> dense(12);
  std::vector<float> target(12);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    dense[i] = 0.25F * static_cast<float>(i) - 1.0F;
    target[i] = 1.5F - 0.125F * static_cast<float>(i);
  }

  // Explicit pointer types disambiguate the float overloads from the Half
  // ones added alongside them.
  using DotFn = double (*)(const SparseVectorView&, std::span<const float>);
  using ResFn = double (*)(const SparseVectorView&, std::span<const float>,
                           std::span<const float>);
  for (const bool use_vec : {false, true}) {
    const DotFn dot_fn = use_vec ? static_cast<DotFn>(vec::sparse_dot)
                                 : static_cast<DotFn>(scalar::sparse_dot);
    const ResFn res_fn =
        use_vec ? static_cast<ResFn>(vec::sparse_residual_dot)
                : static_cast<ResFn>(scalar::sparse_residual_dot);
    EXPECT_EQ(dot_fn(padded, dense), dot_fn(real, dense));
    EXPECT_EQ(res_fn(padded, target, dense), res_fn(real, target, dense));
  }
  // The fp32 scatter has only the scalar body.
  std::vector<float> from_real = dense;
  std::vector<float> from_padded = dense;
  scalar::sparse_axpy<float>(-0.75, real, from_real);
  scalar::sparse_axpy<float>(-0.75, padded, from_padded);
  EXPECT_EQ(from_real, from_padded);
}

// --- fp16 storage: the Half instantiations of the shared-vector kernels ---

/// Restores the process-wide kernel backend on scope exit.
struct BackendGuard {
  KernelBackend saved = kernel_backend();
  ~BackendGuard() { set_kernel_backend(saved); }
};

std::vector<Half> to_halves(std::span<const float> x) {
  std::vector<Half> out(x.size());
  narrow(x, out);
  return out;
}

std::vector<std::uint16_t> bits_of(std::span<const Half> x) {
  std::vector<std::uint16_t> out;
  for (const Half h : x) out.push_back(h.bits);
  return out;
}

/// A random sparse coordinate with strictly increasing indices (so every
/// scatter touches an element once) and dense vectors of `dim` entries.
/// With `half_values` every dense entry is half-representable, so the
/// float and Half images of each vector hold exactly the same values.
struct SharedVectorCase {
  std::vector<sparse::Index> idx;
  std::vector<float> val;
  std::vector<float> dense, target, w, replica, base;
  double abs_sum = 0.0;

  SharedVectorCase(std::size_t nnz, std::uint64_t seed, bool half_values) {
    util::Rng rng(seed);
    const std::size_t dim = 4 * nnz + 8;
    const auto draw = [&](std::size_t n) {
      std::vector<float> v(n);
      for (auto& x : v) x = static_cast<float>(rng.normal());
      if (half_values) widen(to_halves(v), v);
      return v;
    };
    dense = draw(dim);
    target = draw(dim);
    replica = draw(dim);
    base = draw(dim);
    // Shorter than the replicas (padded storage), with a tail that is not a
    // multiple of the unroll or SIMD width.
    w = draw(3 * nnz + 5);
    sparse::Index at = 0;
    for (std::size_t k = 0; k < nnz; ++k) {
      at += 1 + static_cast<sparse::Index>(rng.uniform() * 3.0);
      idx.push_back(at);
      val.push_back(static_cast<float>(rng.normal()));
      abs_sum += std::abs(static_cast<double>(val.back()));
    }
  }
  sparse::SparseVectorView view() const { return make_view(idx, val); }
};

// Through the public dispatch at both storage types: the element-wise
// kernels (add_diff, sparse_axpy) are bit-identical across backends, the
// reductions agree within the §9 tolerance.
TEST_P(KernelEquivalence, SharedVectorKernelsMatchAcrossBackends) {
  const std::size_t nnz = GetParam();
  const SharedVectorCase c(nnz, 0xFACE + nnz, /*half_values=*/false);
  const auto view = c.view();
  const auto dense_h = to_halves(c.dense);
  const auto replica_h = to_halves(c.replica);
  const auto base_h = to_halves(c.base);

  struct Outputs {
    double dot = 0.0, residual = 0.0, dot_h = 0.0, residual_h = 0.0;
    std::vector<float> scatter, diff, diff_h;
    std::vector<Half> scatter_h;
  };
  const BackendGuard guard;
  const auto run = [&](KernelBackend backend) {
    set_kernel_backend(backend);
    Outputs out;
    out.dot = sparse_dot(view, c.dense);
    out.residual = sparse_residual_dot(view, c.target, c.dense);
    out.dot_h = sparse_dot(view, dense_h);
    out.residual_h = sparse_residual_dot(view, c.target, dense_h);
    out.scatter = c.dense;
    sparse_axpy(-0.75, view, out.scatter);
    out.scatter_h = dense_h;
    sparse_axpy(-0.75, view, out.scatter_h);
    out.diff = c.w;
    add_diff(out.diff, c.replica, c.base);
    out.diff_h = c.w;
    add_diff(out.diff_h, replica_h, base_h);
    return out;
  };
  const Outputs scalar_out = run(KernelBackend::kScalar);
  const Outputs vec_out = run(KernelBackend::kVectorized);

  const double dot_tol = reduction_tol(4.0 * c.abs_sum, nnz);
  const double residual_tol = reduction_tol(8.0 * c.abs_sum, nnz);
  EXPECT_NEAR(vec_out.dot, scalar_out.dot, dot_tol);
  EXPECT_NEAR(vec_out.residual, scalar_out.residual, residual_tol);
  EXPECT_NEAR(vec_out.dot_h, scalar_out.dot_h, dot_tol);
  EXPECT_NEAR(vec_out.residual_h, scalar_out.residual_h, residual_tol);
  EXPECT_EQ(vec_out.scatter, scalar_out.scatter);
  EXPECT_EQ(bits_of(vec_out.scatter_h), bits_of(scalar_out.scatter_h));
  EXPECT_EQ(vec_out.diff, scalar_out.diff);
  EXPECT_EQ(vec_out.diff_h, scalar_out.diff_h);
}

// On half-representable inputs both instantiations of one body see exactly
// the same values, so they must agree bit for bit: the scalar reductions,
// add_diff in either backend, and the scatter, whose Half result is the
// float result narrowed once per touched element.
TEST_P(KernelEquivalence, HalfKernelsEqualFloatKernelsOnHalfValues) {
  const std::size_t nnz = GetParam();
  const SharedVectorCase c(nnz, 0xF00D + nnz, /*half_values=*/true);
  const auto view = c.view();
  const auto dense_h = to_halves(c.dense);

  EXPECT_EQ(scalar::sparse_dot<Half>(view, dense_h),
            scalar::sparse_dot<float>(view, c.dense));
  EXPECT_EQ(scalar::sparse_residual_dot<Half>(view, c.target, dense_h),
            scalar::sparse_residual_dot<float>(view, c.target, c.dense));

  std::vector<float> diff = c.w;
  scalar::add_diff<float>(diff, c.replica, c.base);
  std::vector<float> diff_scalar_h = c.w;
  scalar::add_diff<Half>(diff_scalar_h, to_halves(c.replica),
                         to_halves(c.base));
  std::vector<float> diff_vec_h = c.w;
  vec::add_diff(diff_vec_h, to_halves(c.replica), to_halves(c.base));
  EXPECT_EQ(diff_scalar_h, diff);
  EXPECT_EQ(diff_vec_h, diff);

  std::vector<float> scatter = c.dense;
  scalar::sparse_axpy<float>(0.3125, view, scatter);
  std::vector<Half> scatter_h = dense_h;
  scalar::sparse_axpy<Half>(0.3125, view, scatter_h);
  EXPECT_EQ(bits_of(scatter_h), bits_of(to_halves(scatter)));
}

// The padded no-op contract of PaddedDuplicateIndicesAreExactNoOps, for
// fp16 storage in both backends.
TEST(KernelBackends, PaddedDuplicateIndicesAreExactNoOpsForHalf) {
  const std::vector<sparse::Index> real_idx{1, 4, 9};
  const std::vector<float> real_val{0.5F, -2.0F, 3.25F};
  std::vector<sparse::Index> padded_idx = real_idx;
  std::vector<float> padded_val = real_val;
  while (padded_idx.size() % 8 != 0) {
    padded_idx.push_back(real_idx.back());
    padded_val.push_back(0.0F);
  }
  const auto real = make_view(real_idx, real_val);
  const auto padded = make_view(padded_idx, padded_val);
  std::vector<float> dense_f(12);
  std::vector<float> target(12);
  for (std::size_t i = 0; i < dense_f.size(); ++i) {
    dense_f[i] = 0.25F * static_cast<float>(i) - 1.0F;
    target[i] = 1.5F - 0.125F * static_cast<float>(i);
  }
  const auto dense = to_halves(dense_f);

  const BackendGuard guard;
  for (const auto backend :
       {KernelBackend::kScalar, KernelBackend::kVectorized}) {
    set_kernel_backend(backend);
    EXPECT_EQ(sparse_dot(padded, dense), sparse_dot(real, dense));
    EXPECT_EQ(sparse_residual_dot(padded, target, dense),
              sparse_residual_dot(real, target, dense));
    std::vector<Half> from_real = dense;
    std::vector<Half> from_padded = dense;
    sparse_axpy(-0.75, real, from_real);
    sparse_axpy(-0.75, padded, from_padded);
    EXPECT_EQ(bits_of(from_real), bits_of(from_padded));
  }
}

TEST(KernelBackends, EnvironmentDefaultAndOverride) {
  const auto saved = kernel_backend();
  set_kernel_backend(KernelBackend::kScalar);
  EXPECT_EQ(kernel_backend(), KernelBackend::kScalar);
  set_kernel_backend(KernelBackend::kVectorized);
  EXPECT_EQ(kernel_backend(), KernelBackend::kVectorized);
  set_kernel_backend(saved);
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kVectorized), "vectorized");
}

TEST(VectorOps, MaxAbsDiffAndDistance) {
  const std::vector<float> x{1.0F, 5.0F};
  const std::vector<float> y{2.0F, 2.0F};
  EXPECT_DOUBLE_EQ(max_abs_diff(x, y), 3.0);
  EXPECT_DOUBLE_EQ(distance(x, y), std::sqrt(1.0 + 9.0));
}

class MatvecSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatvecSweep, MatvecMatchesDenseReference) {
  util::Rng rng(GetParam());
  sparse::CooBuilder coo(9, 14);
  for (sparse::Index r = 0; r < 9; ++r) {
    for (sparse::Index c = 0; c < 14; ++c) {
      if (rng.bernoulli(0.3)) {
        coo.add(r, c, static_cast<float>(rng.normal()));
      }
    }
  }
  const auto csr = sparse::coo_to_csr(coo);
  std::vector<float> x(14);
  for (auto& v : x) v = static_cast<float>(rng.normal());

  const auto y = csr_matvec(csr, x);
  ASSERT_EQ(y.size(), 9u);
  for (sparse::Index r = 0; r < 9; ++r) {
    double expected = 0.0;
    for (sparse::Index c = 0; c < 14; ++c) {
      expected += static_cast<double>(csr.at(r, c)) * x[c];
    }
    EXPECT_NEAR(y[r], expected, 1e-4);
  }

  std::vector<float> z(9);
  for (auto& v : z) v = static_cast<float>(rng.normal());
  const auto yt = csr_matvec_transposed(csr, z);
  ASSERT_EQ(yt.size(), 14u);
  for (sparse::Index c = 0; c < 14; ++c) {
    double expected = 0.0;
    for (sparse::Index r = 0; r < 9; ++r) {
      expected += static_cast<double>(csr.at(r, c)) * z[r];
    }
    EXPECT_NEAR(yt[c], expected, 1e-4);
  }

  // The in-place overloads must reproduce the allocating ones exactly —
  // they are the same loops writing into a caller-provided span.
  std::vector<float> y_inplace(9, -7.0F);
  csr_matvec(csr, x, y_inplace);
  EXPECT_EQ(y_inplace, y);
  std::vector<float> yt_inplace(14, -7.0F);
  csr_matvec_transposed(csr, z, yt_inplace);
  EXPECT_EQ(yt_inplace, yt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatvecSweep,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL));

}  // namespace
}  // namespace tpa::linalg
