#include "linalg/kernels.hpp"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "obs/trace.hpp"

// Explicit SIMD paths for the gather-bound sparse kernels: the compiler will
// happily vectorise the dense multi-accumulator loops on its own but never
// emits hardware gathers for the indexed ones.  Available when the kernels TU
// is built for an AVX2+FMA host (see TPA_KERNEL_NATIVE in CMakeLists.txt);
// everything falls back to the portable unrolled loops otherwise.
//
// The gathers deliberately stay 256-bit: a 512-bit variant measured faster in
// kernel-only microbenchmarks but slowed the surrounding scalar epoch code by
// ~5% (zmm licence/transition effects), and ymm gathers avoid that entirely
// while keeping the path usable on every AVX2 machine.
#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define TPA_KERNELS_GATHER 1
#else
#define TPA_KERNELS_GATHER 0
#endif

namespace tpa::linalg {
namespace {

KernelBackend backend_from_env() {
  const char* env = std::getenv("TPA_KERNELS");
  if (env != nullptr &&
      (std::strcmp(env, "scalar") == 0 || std::strcmp(env, "ref") == 0)) {
    return KernelBackend::kScalar;
  }
  return KernelBackend::kVectorized;
}

std::atomic<KernelBackend>& backend_slot() noexcept {
  static std::atomic<KernelBackend> backend = [] {
    const KernelBackend initial = backend_from_env();
    // Tag the trace so an exported timeline records which kernel backend
    // produced it (otherData.kernel_backend in the Chrome trace).
    obs::set_trace_metadata("kernel_backend", kernel_backend_name(initial));
    return std::atomic<KernelBackend>{initial};
  }();
  return backend;
}

#if TPA_KERNELS_GATHER
// Deterministic pairwise sum of the four double lanes of an accumulator
// vector — the fixed combine order the reduction contract promises.
double reduce_lanes(__m256d acc) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}
#endif

// The store half of to_float (half.hpp): fp16 narrows with RNE.
inline void store(float& out, float x) noexcept { out = x; }
inline void store(Half& out, float x) noexcept { out = float_to_half(x); }

// Shared-vector spans, for the explicit instantiations below.
using Floats = std::span<const float>;
using Halves = std::span<const Half>;

}  // namespace

KernelBackend kernel_backend() noexcept {
  return backend_slot().load(std::memory_order_relaxed);
}

void set_kernel_backend(KernelBackend backend) noexcept {
  backend_slot().store(backend, std::memory_order_relaxed);
  obs::set_trace_metadata("kernel_backend", kernel_backend_name(backend));
  // A switch mid-run is worth a mark on the timeline: spans before and after
  // it ran on different kernels.
  obs::trace_instant(backend == KernelBackend::kScalar
                         ? "kernel_backend:scalar"
                         : "kernel_backend:vectorized");
}

const char* kernel_backend_name(KernelBackend backend) noexcept {
  return backend == KernelBackend::kScalar ? "scalar" : "vectorized";
}

bool kernel_native_build() noexcept {
#if defined(TPA_KERNEL_NATIVE_BUILD)
  return true;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Scalar reference: strict left-to-right single-accumulator loops, identical
// to the original vector_ops.cpp bodies.
// ---------------------------------------------------------------------------

namespace scalar {

double dot(std::span<const float> x, std::span<const float> y) {
  assert(x.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return acc;
}

double dot(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

void axpy(double alpha, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = static_cast<float>(y[i] + alpha * x[i]);
  }
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

template <typename T>
double sparse_dot(const SparseVectorView& a, std::span<const T> dense) {
  double acc = 0.0;
  for (std::size_t k = 0; k < a.nnz(); ++k) {
    acc += static_cast<double>(a.values[k]) *
           static_cast<double>(to_float(dense[a.indices[k]]));
  }
  return acc;
}

template <typename T>
double sparse_residual_dot(const SparseVectorView& a,
                           std::span<const float> target,
                           std::span<const T> dense) {
  double acc = 0.0;
  for (std::size_t k = 0; k < a.nnz(); ++k) {
    const auto i = a.indices[k];
    acc += static_cast<double>(a.values[k]) *
           (static_cast<double>(target[i]) -
            static_cast<double>(to_float(dense[i])));
  }
  return acc;
}

template <typename T>
void sparse_axpy(double alpha, const SparseVectorView& a, std::span<T> dense) {
  // Read, add in double, store.  This must stay an in-order RMW per
  // element: padded views repeat their last index, so batching would
  // scatter a stale read over the real update.
  for (std::size_t k = 0; k < a.nnz(); ++k) {
    const auto i = a.indices[k];
    store(dense[i],
          static_cast<float>(to_float(dense[i]) + alpha * a.values[k]));
  }
}

template <typename T>
void add_diff(std::span<float> w, std::span<const T> replica,
              std::span<const T> base) {
  assert(replica.size() >= w.size() && base.size() >= w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(
        w[i] + (static_cast<double>(to_float(replica[i])) -
                static_cast<double>(to_float(base[i]))));
  }
}

template double sparse_dot(const SparseVectorView&, Floats);
template double sparse_dot(const SparseVectorView&, Halves);
template double sparse_residual_dot(const SparseVectorView&, Floats, Floats);
template double sparse_residual_dot(const SparseVectorView&, Floats, Halves);
template void sparse_axpy(double, const SparseVectorView&, std::span<float>);
template void sparse_axpy(double, const SparseVectorView&, std::span<Half>);
template void add_diff(std::span<float>, Floats, Floats);
template void add_diff(std::span<float>, Halves, Halves);

}  // namespace scalar

// ---------------------------------------------------------------------------
// Vectorized: multi-accumulator unrolled loops.  Reductions keep 4 (dense: 8)
// independent double accumulators — the combine order is fixed (pairwise), so
// results are deterministic, just not identical to left-to-right.
// Element-wise kernels apply the exact scalar per-element expression.
// ---------------------------------------------------------------------------

namespace vec {

double dot(std::span<const float> x, std::span<const float> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  double a4 = 0.0, a5 = 0.0, a6 = 0.0, a7 = 0.0;
  std::size_t i = 0;
  for (const std::size_t n8 = n & ~std::size_t{7}; i < n8; i += 8) {
    a0 += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    a1 += static_cast<double>(x[i + 1]) * static_cast<double>(y[i + 1]);
    a2 += static_cast<double>(x[i + 2]) * static_cast<double>(y[i + 2]);
    a3 += static_cast<double>(x[i + 3]) * static_cast<double>(y[i + 3]);
    a4 += static_cast<double>(x[i + 4]) * static_cast<double>(y[i + 4]);
    a5 += static_cast<double>(x[i + 5]) * static_cast<double>(y[i + 5]);
    a6 += static_cast<double>(x[i + 6]) * static_cast<double>(y[i + 6]);
    a7 += static_cast<double>(x[i + 7]) * static_cast<double>(y[i + 7]);
  }
  for (; i < n; ++i) {
    a0 += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7));
}

double dot(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (const std::size_t n4 = n & ~std::size_t{3}; i < n4; i += 4) {
    a0 += x[i] * y[i];
    a1 += x[i + 1] * y[i + 1];
    a2 += x[i + 2] * y[i + 2];
    a3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) a0 += x[i] * y[i];
  return (a0 + a1) + (a2 + a3);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (const std::size_t n4 = n & ~std::size_t{3}; i < n4; i += 4) {
    y[i] += alpha * x[i];
    y[i + 1] += alpha * x[i + 1];
    y[i + 2] += alpha * x[i + 2];
    y[i + 3] += alpha * x[i + 3];
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

template <typename T>
double sparse_dot(const SparseVectorView& a, std::span<const T> dense) {
  const std::size_t n = a.nnz();
  const sparse::Index* idx = a.indices.data();
  const sparse::Value* val = a.values.data();
#if TPA_KERNELS_GATHER
  if constexpr (std::is_same_v<T, float>) {
    // Eight hardware-gathered lanes per step (one vgatherdps ymm), widened
    // to two 4-lane double accumulators.  Duplicate indices (bucketed
    // padding) are harmless for a gather; their values are 0 and contribute
    // exact zeros.  fmadd is bit-identical to mul+add here — the product of
    // two float-derived doubles is exact in double, so the fused single
    // rounding equals the two-step result.  The combine order is fixed, so
    // the result is deterministic.
    __m256d acc_lo = _mm256_setzero_pd();
    __m256d acc_hi = _mm256_setzero_pd();
    std::size_t k = 0;
    for (const std::size_t n8 = n & ~std::size_t{7}; k < n8; k += 8) {
      const __m256i vidx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + k));
      const __m256 gathered = _mm256_i32gather_ps(dense.data(), vidx, 4);
      const __m256 vval = _mm256_loadu_ps(val + k);
      acc_lo = _mm256_fmadd_pd(
          _mm256_cvtps_pd(_mm256_castps256_ps128(vval)),
          _mm256_cvtps_pd(_mm256_castps256_ps128(gathered)), acc_lo);
      acc_hi = _mm256_fmadd_pd(
          _mm256_cvtps_pd(_mm256_extractf128_ps(vval, 1)),
          _mm256_cvtps_pd(_mm256_extractf128_ps(gathered, 1)), acc_hi);
    }
    double tail = 0.0;
    for (; k < n; ++k) {
      tail += static_cast<double>(val[k]) * static_cast<double>(dense[idx[k]]);
    }
    return (reduce_lanes(acc_lo) + reduce_lanes(acc_hi)) + tail;
  }
#endif
  // The portable body: four double accumulators.  It is also the fp16 body
  // on every build — no 16-bit gather exists, and widening is exact, so
  // each term equals the scalar reference's and only the combine order
  // differs.
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t k = 0;
  for (const std::size_t n4 = n & ~std::size_t{3}; k < n4; k += 4) {
    a0 += static_cast<double>(val[k]) *
          static_cast<double>(to_float(dense[idx[k]]));
    a1 += static_cast<double>(val[k + 1]) *
          static_cast<double>(to_float(dense[idx[k + 1]]));
    a2 += static_cast<double>(val[k + 2]) *
          static_cast<double>(to_float(dense[idx[k + 2]]));
    a3 += static_cast<double>(val[k + 3]) *
          static_cast<double>(to_float(dense[idx[k + 3]]));
  }
  for (; k < n; ++k) {
    a0 += static_cast<double>(val[k]) *
          static_cast<double>(to_float(dense[idx[k]]));
  }
  return (a0 + a1) + (a2 + a3);
}

template <typename T>
double sparse_residual_dot(const SparseVectorView& a,
                           std::span<const float> target,
                           std::span<const T> dense) {
  const std::size_t n = a.nnz();
  const sparse::Index* idx = a.indices.data();
  const sparse::Value* val = a.values.data();
#if TPA_KERNELS_GATHER
  if constexpr (std::is_same_v<T, float>) {
    // ⟨a, target − dense⟩: two 8-lane gathers per step, subtracted in
    // double exactly as the scalar expression does.
    __m256d acc_lo = _mm256_setzero_pd();
    __m256d acc_hi = _mm256_setzero_pd();
    std::size_t k = 0;
    for (const std::size_t n8 = n & ~std::size_t{7}; k < n8; k += 8) {
      const __m256i vidx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + k));
      const __m256 t = _mm256_i32gather_ps(target.data(), vidx, 4);
      const __m256 d = _mm256_i32gather_ps(dense.data(), vidx, 4);
      const __m256 vval = _mm256_loadu_ps(val + k);
      const __m256d diff_lo =
          _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(t)),
                        _mm256_cvtps_pd(_mm256_castps256_ps128(d)));
      const __m256d diff_hi =
          _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(t, 1)),
                        _mm256_cvtps_pd(_mm256_extractf128_ps(d, 1)));
      acc_lo = _mm256_fmadd_pd(
          _mm256_cvtps_pd(_mm256_castps256_ps128(vval)), diff_lo, acc_lo);
      acc_hi = _mm256_fmadd_pd(
          _mm256_cvtps_pd(_mm256_extractf128_ps(vval, 1)), diff_hi, acc_hi);
    }
    double tail = 0.0;
    for (; k < n; ++k) {
      const auto i = idx[k];
      tail += static_cast<double>(val[k]) *
              (static_cast<double>(target[i]) - static_cast<double>(dense[i]));
    }
    return (reduce_lanes(acc_lo) + reduce_lanes(acc_hi)) + tail;
  }
#endif
  // Portable body, shared with fp16 storage as in sparse_dot.
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t k = 0;
  for (const std::size_t n4 = n & ~std::size_t{3}; k < n4; k += 4) {
    const auto i0 = idx[k], i1 = idx[k + 1], i2 = idx[k + 2], i3 = idx[k + 3];
    a0 += static_cast<double>(val[k]) *
          (static_cast<double>(target[i0]) -
           static_cast<double>(to_float(dense[i0])));
    a1 += static_cast<double>(val[k + 1]) *
          (static_cast<double>(target[i1]) -
           static_cast<double>(to_float(dense[i1])));
    a2 += static_cast<double>(val[k + 2]) *
          (static_cast<double>(target[i2]) -
           static_cast<double>(to_float(dense[i2])));
    a3 += static_cast<double>(val[k + 3]) *
          (static_cast<double>(target[i3]) -
           static_cast<double>(to_float(dense[i3])));
  }
  for (; k < n; ++k) {
    const auto i = idx[k];
    a0 += static_cast<double>(val[k]) *
          (static_cast<double>(target[i]) -
           static_cast<double>(to_float(dense[i])));
  }
  return (a0 + a1) + (a2 + a3);
}

void add_diff(std::span<float> w, std::span<const Half> replica,
              std::span<const Half> base) {
  assert(replica.size() >= w.size() && base.size() >= w.size());
  std::size_t i = 0;
#if TPA_KERNELS_GATHER && defined(__F16C__)
  // Eight lanes per step: VCVTPH2PS widens both operands exactly, the
  // subtract/add chain runs in packed double, and the store narrows to
  // float — the scalar per-element expression, evaluated in SIMD lanes.
  float* out = w.data();
  const Half* r = replica.data();
  const Half* b = base.data();
  for (const std::size_t n8 = w.size() & ~std::size_t{7}; i < n8; i += 8) {
    const __m256 rf = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(r + i)));
    const __m256 bf = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    const __m256 wf = _mm256_loadu_ps(out + i);
    const __m256d diff_lo =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(rf)),
                      _mm256_cvtps_pd(_mm256_castps256_ps128(bf)));
    const __m256d diff_hi =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(rf, 1)),
                      _mm256_cvtps_pd(_mm256_extractf128_ps(bf, 1)));
    const __m256d sum_lo = _mm256_add_pd(
        _mm256_cvtps_pd(_mm256_castps256_ps128(wf)), diff_lo);
    const __m256d sum_hi = _mm256_add_pd(
        _mm256_cvtps_pd(_mm256_extractf128_ps(wf, 1)), diff_hi);
    _mm256_storeu_ps(
        out + i,
        _mm256_set_m128(_mm256_cvtpd_ps(sum_hi), _mm256_cvtpd_ps(sum_lo)));
  }
#endif
  // The remainder — everything on a build without F16C — is the scalar body.
  scalar::add_diff(w.subspan(i), replica.subspan(i), base.subspan(i));
}

template double sparse_dot(const SparseVectorView&, Floats);
template double sparse_dot(const SparseVectorView&, Halves);
template double sparse_residual_dot(const SparseVectorView&, Floats, Floats);
template double sparse_residual_dot(const SparseVectorView&, Floats, Halves);

}  // namespace vec

}  // namespace tpa::linalg
