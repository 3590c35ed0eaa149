// IEEE 754 binary16 storage type and the shared-vector precision mode.
//
// The shared vector is the bandwidth hog of every solver in the paper: each
// coordinate update gathers and scatters it once, so its element width is
// the per-nnz byte budget of the hot loop.  This header provides the fp16
// *storage* format — values are always widened to fp32 before any
// arithmetic, and every reduction still accumulates in fp64 exactly like
// the float kernels (kernels.hpp), so only the stored representation loses
// precision, never the accumulation.
//
// Conversions are software bit manipulation implementing IEEE semantics:
// round-to-nearest-even, gradual underflow to binary16 subnormals,
// overflow saturating to ±inf (the rounding-correct result: everything at
// or above 65520 is nearer the next power of two than the largest finite
// half), and NaN payload truncation with the quiet bit forced — the same
// results the F16C VCVTPS2PH/VCVTPH2PS instructions produce, which the
// vectorized span conversions in half.cpp use when the kernels TU is built
// for an F16C host (TPA_KERNEL_NATIVE).  DESIGN.md §16 documents where
// fp16 storage is safe and where fp64 stays load-bearing.
#pragma once

#include <cstdint>
#include <span>

namespace tpa::linalg {

/// Opaque binary16 value.  A struct (not a bare uint16_t alias) so span
/// overloads on Half are a distinct overload set from integer spans.
struct Half {
  std::uint16_t bits = 0;
};

static_assert(sizeof(Half) == 2, "Half must be exactly two bytes");

/// float bits -> binary16 bits, round-to-nearest-even.
constexpr std::uint16_t float_bits_to_half_bits(std::uint32_t f) noexcept {
  const auto sign = static_cast<std::uint16_t>((f >> 16) & 0x8000U);
  const std::uint32_t abs = f & 0x7FFFFFFFU;
  if (abs >= 0x7F800000U) {
    if (abs > 0x7F800000U) {
      // NaN: truncate the payload to the top 10 mantissa bits and force the
      // quiet bit, so a signalling NaN cannot survive narrowing (matching
      // VCVTPS2PH).
      const auto payload = static_cast<std::uint16_t>((abs >> 13) & 0x3FFU);
      return static_cast<std::uint16_t>(sign | 0x7C00U | 0x200U | payload);
    }
    return static_cast<std::uint16_t>(sign | 0x7C00U);  // ±inf
  }
  if (abs >= 0x38800000U) {  // |x| >= 2^-14: normal half (or overflow)
    // Rebias the exponent ((e−127)+15 in place) and round the mantissa from
    // 23 to 10 bits.  A mantissa carry ripples into the exponent field,
    // which is exactly RNE's behaviour at binade boundaries — including the
    // top one, where values >= 65520 carry past the largest finite half
    // into the inf encoding (saturate-to-inf overflow policy).
    std::uint32_t half = (abs >> 13) - (112U << 10);
    const std::uint32_t rest = abs & 0x1FFFU;
    if (rest > 0x1000U || (rest == 0x1000U && (half & 1U) != 0)) ++half;
    if (half >= 0x7C00U) half = 0x7C00U;
    return static_cast<std::uint16_t>(sign | half);
  }
  if (abs < 0x33000000U) return sign;  // |x| < 2^-25 underflows to ±0
  // Subnormal half: round value·2^24 to an integer mantissa.  2^-25 exactly
  // ties to 0 (even); anything above it rounds to at least one ulp (2^-24).
  const std::uint32_t e = abs >> 23;  // biased float exponent, >= 102 here
  const std::uint32_t mant = (abs & 0x7FFFFFU) | 0x800000U;
  const std::uint32_t shift = 126U - e;  // in [14, 24]
  std::uint32_t half = mant >> shift;
  const std::uint32_t rest = mant & ((1U << shift) - 1U);
  const std::uint32_t halfway = 1U << (shift - 1U);
  if (rest > halfway || (rest == halfway && (half & 1U) != 0)) ++half;
  return static_cast<std::uint16_t>(sign | half);
}

/// binary16 bits -> float bits (exact: every half value is a float).
constexpr std::uint32_t half_bits_to_float_bits(std::uint16_t h) noexcept {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000U) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1FU;
  std::uint32_t mant = h & 0x3FFU;
  if (exp == 0x1FU) {  // inf / NaN: payload widens into the top float bits
    return sign | 0x7F800000U | (mant << 13);
  }
  if (exp == 0) {
    if (mant == 0) return sign;  // ±0
    // Subnormal: renormalise by shifting the mantissa up to its implicit
    // bit, decrementing the exponent per shift.
    std::uint32_t e = 113;  // biased float exponent of 2^-14
    while ((mant & 0x400U) == 0) {
      mant <<= 1;
      --e;
    }
    return sign | (e << 23) | ((mant & 0x3FFU) << 13);
  }
  return sign | ((exp + 112U) << 23) | (mant << 13);
}

float half_to_float(Half h) noexcept;
Half float_to_half(float x) noexcept;

/// Reads one shared-vector element at either storage type — the identity
/// for float, exact widening for Half — so one body serves both precisions.
inline float to_float(float x) noexcept { return x; }
inline float to_float(Half h) noexcept { return half_to_float(h); }

/// out[i] = float(src[i]) — exact widening.  Dispatches on kernel_backend():
/// the vectorized backend uses VCVTPH2PS eight lanes at a time on an F16C
/// build; results are bit-identical either way (widening is exact).
void widen(std::span<const Half> src, std::span<float> out);

/// out[i] = half(src[i]) — RNE narrowing.  Vectorized backend uses
/// VCVTPS2PH on an F16C build; software and hardware agree bit-for-bit
/// (test_half cross-checks them).
void narrow(std::span<const float> src, std::span<Half> out);

/// max_i |src[i]|, 0 for an empty span.  NaN entries are skipped, exactly as
/// acc = std::max(acc, |x|) skips them.  The delta codec's block scale; the
/// vectorized backend folds four lanes with VMAXPD (exact for a maximum).
double max_abs(std::span<const double> src) noexcept;

/// out[i] = half(float(src[i] / scale)) — the delta codec's quantization:
/// one fp64 divide (never a reciprocal multiply, which rounds differently),
/// RNE to fp32, RNE to binary16.  Vectorized backend: VDIVPD, VCVTPD2PS,
/// VCVTPS2PH on an F16C build; bit-identical either way.
void quantize(std::span<const double> src, double scale, std::span<Half> out);

/// out[i] = double(float(src[i])) * scale — the codec's dequantization: exact
/// widening, then one fp64 multiply.  Vectorized backend: VCVTPH2PS,
/// VCVTPS2PD, VMULPD on an F16C build; bit-identical either way.
void dequantize(std::span<const Half> src, double scale,
                std::span<double> out);

/// True when the kernels TU was compiled with F16C available, i.e. the
/// vectorized widen/narrow/quantize/dequantize paths use hardware
/// conversions.
bool half_hardware_build() noexcept;

/// Storage precision of the shared vector in the replicated hot paths.
/// kFp32 is the historical (and default) representation; kFp16 stores
/// replicas as binary16, halving the bytes each sweep touches, while all
/// arithmetic still runs fp32-widened with fp64 accumulation.
enum class SharedPrecision {
  kFp32,
  kFp16,
};

/// Currently selected shared-vector storage precision.  Initialised once
/// from the TPA_PRECISION environment variable ("fp16"/"half" selects
/// kFp16); defaults to kFp32.
SharedPrecision shared_precision() noexcept;

/// Overrides the precision at runtime (CLI --precision, tests, benches).
void set_shared_precision(SharedPrecision precision) noexcept;

const char* shared_precision_name(SharedPrecision precision) noexcept;

/// Bytes per stored shared-vector element under `precision`.
constexpr std::size_t shared_value_bytes(SharedPrecision precision) noexcept {
  return precision == SharedPrecision::kFp16 ? sizeof(Half) : sizeof(float);
}

}  // namespace tpa::linalg
