#include "linalg/half.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "linalg/kernels.hpp"
#include "obs/trace.hpp"

// Hardware half conversions when this TU is built for an F16C host (the
// kernels TU compile options in CMakeLists.txt apply here too).  VCVTPS2PH
// with the RNE immediate and VCVTPH2PS implement exactly the software
// semantics in half.hpp, so the dispatch below changes throughput only,
// never bits — test_half cross-checks the two paths on every build.
#if defined(__F16C__)
#include <immintrin.h>
#define TPA_HALF_F16C 1
#else
#define TPA_HALF_F16C 0
#endif

namespace tpa::linalg {
namespace {

SharedPrecision precision_from_env() {
  const char* env = std::getenv("TPA_PRECISION");
  if (env != nullptr &&
      (std::strcmp(env, "fp16") == 0 || std::strcmp(env, "half") == 0)) {
    return SharedPrecision::kFp16;
  }
  return SharedPrecision::kFp32;
}

std::atomic<SharedPrecision>& precision_slot() noexcept {
  static std::atomic<SharedPrecision> precision = [] {
    const SharedPrecision initial = precision_from_env();
    obs::set_trace_metadata("shared_precision",
                            shared_precision_name(initial));
    return std::atomic<SharedPrecision>{initial};
  }();
  return precision;
}

inline bool use_scalar() noexcept {
  return kernel_backend() == KernelBackend::kScalar;
}

void widen_scalar(std::span<const Half> src, std::span<float> out) {
  for (std::size_t i = 0; i < src.size(); ++i) out[i] = half_to_float(src[i]);
}

void narrow_scalar(std::span<const float> src, std::span<Half> out) {
  for (std::size_t i = 0; i < src.size(); ++i) out[i] = float_to_half(src[i]);
}

double max_abs_scalar(std::span<const double> src) {
  double acc = 0.0;
  for (const double x : src) acc = std::max(acc, std::abs(x));
  return acc;
}

void quantize_scalar(std::span<const double> src, double scale,
                     std::span<Half> out) {
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[i] = float_to_half(static_cast<float>(src[i] / scale));
  }
}

void dequantize_scalar(std::span<const Half> src, double scale,
                       std::span<double> out) {
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[i] = static_cast<double>(half_to_float(src[i])) * scale;
  }
}

#if TPA_HALF_F16C

void widen_f16c(std::span<const Half> src, std::span<float> out) {
  const std::size_t n = src.size();
  const auto* in = reinterpret_cast<const std::uint16_t*>(src.data());
  std::size_t i = 0;
  for (const std::size_t n8 = n & ~std::size_t{7}; i < n8; i += 8) {
    const __m128i packed =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    _mm256_storeu_ps(out.data() + i, _mm256_cvtph_ps(packed));
  }
  for (; i < n; ++i) out[i] = half_to_float(src[i]);
}

void narrow_f16c(std::span<const float> src, std::span<Half> out) {
  const std::size_t n = src.size();
  auto* dst = reinterpret_cast<std::uint16_t*>(out.data());
  std::size_t i = 0;
  for (const std::size_t n8 = n & ~std::size_t{7}; i < n8; i += 8) {
    const __m256 values = _mm256_loadu_ps(src.data() + i);
    const __m128i packed =
        _mm256_cvtps_ph(values, _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), packed);
  }
  for (; i < n; ++i) out[i] = float_to_half(src[i]);
}

double max_abs_f16c(std::span<const double> src) {
  const std::size_t n = src.size();
  const __m256d sign = _mm256_set1_pd(-0.0);
  // Four accumulators hide VMAXPD's latency.  |x| is the first operand, so a
  // NaN lane keeps the accumulator (MAXPD returns the second operand when
  // either is NaN) — the scalar loop's NaN rule.  Accumulators never hold
  // NaN, and a maximum of non-NaN values is exact in any order.
  __m256d acc[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                    _mm256_setzero_pd(), _mm256_setzero_pd()};
  std::size_t i = 0;
  for (const std::size_t n16 = n & ~std::size_t{15}; i < n16; i += 16) {
    for (int k = 0; k < 4; ++k) {
      const __m256d x = _mm256_loadu_pd(src.data() + i + 4 * k);
      acc[k] = _mm256_max_pd(_mm256_andnot_pd(sign, x), acc[k]);
    }
  }
  const __m256d folded = _mm256_max_pd(_mm256_max_pd(acc[0], acc[1]),
                                       _mm256_max_pd(acc[2], acc[3]));
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, folded);
  double result = std::max(std::max(lanes[0], lanes[1]),
                           std::max(lanes[2], lanes[3]));
  for (; i < n; ++i) result = std::max(result, std::abs(src[i]));
  return result;
}

void quantize_f16c(std::span<const double> src, double scale,
                   std::span<Half> out) {
  const std::size_t n = src.size();
  auto* dst = reinterpret_cast<std::uint16_t*>(out.data());
  const __m256d divisor = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (const std::size_t n8 = n & ~std::size_t{7}; i < n8; i += 8) {
    const __m128 lo = _mm256_cvtpd_ps(
        _mm256_div_pd(_mm256_loadu_pd(src.data() + i), divisor));
    const __m128 hi = _mm256_cvtpd_ps(
        _mm256_div_pd(_mm256_loadu_pd(src.data() + i + 4), divisor));
    const __m128i packed =
        _mm256_cvtps_ph(_mm256_set_m128(hi, lo), _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), packed);
  }
  quantize_scalar(src.subspan(i), scale, out.subspan(i));
}

void dequantize_f16c(std::span<const Half> src, double scale,
                     std::span<double> out) {
  const std::size_t n = src.size();
  const auto* in = reinterpret_cast<const std::uint16_t*>(src.data());
  const __m256d factor = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (const std::size_t n8 = n & ~std::size_t{7}; i < n8; i += 8) {
    const __m256 values = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(values));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(values, 1));
    _mm256_storeu_pd(out.data() + i, _mm256_mul_pd(lo, factor));
    _mm256_storeu_pd(out.data() + i + 4, _mm256_mul_pd(hi, factor));
  }
  dequantize_scalar(src.subspan(i), scale, out.subspan(i));
}

#endif  // TPA_HALF_F16C

}  // namespace

float half_to_float(Half h) noexcept {
  return std::bit_cast<float>(half_bits_to_float_bits(h.bits));
}

Half float_to_half(float x) noexcept {
  return Half{float_bits_to_half_bits(std::bit_cast<std::uint32_t>(x))};
}

void widen(std::span<const Half> src, std::span<float> out) {
  assert(out.size() >= src.size());
#if TPA_HALF_F16C
  if (!use_scalar()) {
    widen_f16c(src, out);
    return;
  }
#endif
  widen_scalar(src, out);
}

void narrow(std::span<const float> src, std::span<Half> out) {
  assert(out.size() >= src.size());
#if TPA_HALF_F16C
  if (!use_scalar()) {
    narrow_f16c(src, out);
    return;
  }
#endif
  narrow_scalar(src, out);
}

double max_abs(std::span<const double> src) noexcept {
#if TPA_HALF_F16C
  if (!use_scalar()) return max_abs_f16c(src);
#endif
  return max_abs_scalar(src);
}

void quantize(std::span<const double> src, double scale, std::span<Half> out) {
  assert(out.size() >= src.size());
#if TPA_HALF_F16C
  if (!use_scalar()) {
    quantize_f16c(src, scale, out);
    return;
  }
#endif
  quantize_scalar(src, scale, out);
}

void dequantize(std::span<const Half> src, double scale,
                std::span<double> out) {
  assert(out.size() >= src.size());
#if TPA_HALF_F16C
  if (!use_scalar()) {
    dequantize_f16c(src, scale, out);
    return;
  }
#endif
  dequantize_scalar(src, scale, out);
}

bool half_hardware_build() noexcept { return TPA_HALF_F16C != 0; }

SharedPrecision shared_precision() noexcept {
  return precision_slot().load(std::memory_order_relaxed);
}

void set_shared_precision(SharedPrecision precision) noexcept {
  precision_slot().store(precision, std::memory_order_relaxed);
  obs::set_trace_metadata("shared_precision",
                          shared_precision_name(precision));
  obs::trace_instant(precision == SharedPrecision::kFp16
                         ? "shared_precision:fp16"
                         : "shared_precision:fp32");
}

const char* shared_precision_name(SharedPrecision precision) noexcept {
  return precision == SharedPrecision::kFp16 ? "fp16" : "fp32";
}

}  // namespace tpa::linalg
