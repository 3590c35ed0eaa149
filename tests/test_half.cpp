// binary16 conversion edge cases (subnormals, infinities, NaN payloads, RNE
// ties, overflow saturation), the codec kernels against their scalar bodies,
// and the compressed delta codec: a bit-exact golden on both backends,
// quantized round-trip accuracy, wire-size formulas, the transit checksum
// catching every single-bit flip of the encoded image, and hostile frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/delta_codec.hpp"
#include "linalg/half.hpp"
#include "linalg/kernels.hpp"
#include "sparse/io_binary.hpp"

namespace tpa::linalg {
namespace {

std::uint32_t float_bits(float x) {
  std::uint32_t bits = 0;
  static_assert(sizeof(bits) == sizeof(x));
  __builtin_memcpy(&bits, &x, sizeof(bits));
  return bits;
}

std::uint16_t narrow_bits(float x) { return float_to_half(x).bits; }

float widen_bits(std::uint16_t h) { return half_to_float(Half{h}); }

// --- Exact values -----------------------------------------------------------

TEST(Half, ExactValuesRoundTrip) {
  EXPECT_EQ(narrow_bits(0.0F), 0x0000U);
  EXPECT_EQ(narrow_bits(-0.0F), 0x8000U);  // sign of zero survives
  EXPECT_EQ(narrow_bits(1.0F), 0x3C00U);
  EXPECT_EQ(narrow_bits(-2.0F), 0xC000U);
  EXPECT_EQ(narrow_bits(0.5F), 0x3800U);
  EXPECT_EQ(narrow_bits(65504.0F), 0x7BFFU);     // largest finite half
  EXPECT_EQ(narrow_bits(0x1.0p-14F), 0x0400U);   // smallest normal half
  EXPECT_EQ(narrow_bits(0x1.0p-24F), 0x0001U);   // smallest subnormal half
  EXPECT_EQ(widen_bits(0x7BFFU), 65504.0F);
  EXPECT_EQ(widen_bits(0x0400U), 0x1.0p-14F);
  EXPECT_EQ(widen_bits(0x0001U), 0x1.0p-24F);
}

// --- Subnormals (gradual underflow) -----------------------------------------

TEST(Half, SubnormalsRoundCorrectly) {
  // Largest subnormal: 2^-14 − 2^-24 = 0x03FF.
  EXPECT_EQ(narrow_bits(0x1.0p-14F - 0x1.0p-24F), 0x03FFU);
  // 3 · 2^-24 is exactly three subnormal ulps.
  EXPECT_EQ(narrow_bits(3.0F * 0x1.0p-24F), 0x0003U);
  EXPECT_EQ(narrow_bits(-3.0F * 0x1.0p-24F), 0x8003U);
  // A float strictly between two subnormal halves rounds to the nearer one:
  // 1.75 · 2^-24 is closer to 2 ulps than 1.
  EXPECT_EQ(narrow_bits(1.75F * 0x1.0p-24F), 0x0002U);
  // Subnormal tie: 1.5 · 2^-24 is halfway between 1 and 2 ulps — RNE picks
  // the even mantissa (2 ulps).
  EXPECT_EQ(narrow_bits(1.5F * 0x1.0p-24F), 0x0002U);
  // 2.5 · 2^-24 ties between 2 and 3 ulps — even again (2 ulps).
  EXPECT_EQ(narrow_bits(2.5F * 0x1.0p-24F), 0x0002U);
}

TEST(Half, UnderflowToSignedZero) {
  // 2^-25 ties exactly between 0 and the smallest subnormal; even is 0.
  EXPECT_EQ(narrow_bits(0x1.0p-25F), 0x0000U);
  EXPECT_EQ(narrow_bits(-0x1.0p-25F), 0x8000U);
  EXPECT_EQ(narrow_bits(0x1.0p-26F), 0x0000U);
  // Anything strictly above the tie rounds up to one ulp.
  EXPECT_EQ(narrow_bits(std::nextafterf(0x1.0p-25F, 1.0F)), 0x0001U);
}

// --- Infinity and overflow saturation ---------------------------------------

TEST(Half, InfinityPropagates) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(narrow_bits(inf), 0x7C00U);
  EXPECT_EQ(narrow_bits(-inf), 0xFC00U);
  EXPECT_TRUE(std::isinf(widen_bits(0x7C00U)));
  EXPECT_TRUE(std::isinf(widen_bits(0xFC00U)));
  EXPECT_LT(widen_bits(0xFC00U), 0.0F);
}

TEST(Half, OverflowSaturatesToInf) {
  // 65520 = (65504 + 65536) / 2 is the rounding boundary: everything at or
  // above it is nearer 2^16 than the largest finite half, so RNE carries
  // past 0x7BFF into the inf encoding.
  EXPECT_EQ(narrow_bits(65520.0F), 0x7C00U);
  EXPECT_EQ(narrow_bits(-65520.0F), 0xFC00U);
  EXPECT_EQ(narrow_bits(1e30F), 0x7C00U);
  // Just below the boundary still rounds down to the largest finite half.
  EXPECT_EQ(narrow_bits(std::nextafterf(65520.0F, 0.0F)), 0x7BFFU);
  EXPECT_EQ(narrow_bits(65519.0F), 0x7BFFU);
}

// --- NaN payloads -----------------------------------------------------------

TEST(Half, NaNIsQuietedAndKeepsTopPayloadBits) {
  // Signalling float NaN (quiet bit clear, payload in the top mantissa
  // bits): narrowing must force the quiet bit so the NaN cannot signal
  // later, while keeping the top ten payload bits (VCVTPS2PH semantics).
  const std::uint32_t snan_bits = 0x7F800000U | (0x155U << 13);
  float snan = 0.0F;
  __builtin_memcpy(&snan, &snan_bits, sizeof(snan));
  ASSERT_TRUE(std::isnan(snan));
  const std::uint16_t h = narrow_bits(snan);
  EXPECT_EQ(h & 0x7C00U, 0x7C00U);     // NaN exponent
  EXPECT_NE(h & 0x3FFU, 0U);           // still a NaN, not inf
  EXPECT_EQ(h & 0x200U, 0x200U);       // quiet bit forced
  EXPECT_EQ(h & 0x155U, 0x155U);       // payload bits preserved
  EXPECT_TRUE(std::isnan(widen_bits(h)));

  // Quiet NaNs survive the full round trip bit-for-bit.
  const std::uint16_t qnan = 0x7E2AU;
  EXPECT_EQ(float_bits_to_half_bits(float_bits(widen_bits(qnan))), qnan);
  EXPECT_TRUE(std::isnan(std::numeric_limits<float>::quiet_NaN()));
  EXPECT_TRUE(
      std::isnan(widen_bits(narrow_bits(-std::numeric_limits<float>::quiet_NaN()))));
}

// --- Round-to-nearest-even ties ---------------------------------------------

TEST(Half, RoundsTiesToEven) {
  // Half ulp at 1.0 is 2^-10, so 1 + 2^-11 ties between 0x3C00 and 0x3C01:
  // even mantissa wins (0x3C00), and the next tie up picks 0x3C02.
  EXPECT_EQ(narrow_bits(1.0F + 0x1.0p-11F), 0x3C00U);
  EXPECT_EQ(narrow_bits(1.0F + 3.0F * 0x1.0p-11F), 0x3C02U);
  // Same ties exercised with integer-exact values: ulp at 2048 is 2.
  EXPECT_EQ(narrow_bits(2049.0F), 0x6800U);  // tie 2048/2050 -> 2048 (even)
  EXPECT_EQ(narrow_bits(2051.0F), 0x6802U);  // tie 2050/2052 -> 2052 (even)
  // Non-ties round to nearest regardless of parity.
  EXPECT_EQ(narrow_bits(2049.5F), 0x6801U);
  EXPECT_EQ(narrow_bits(2050.9F), 0x6801U);
  // A mantissa carry at a binade boundary ripples into the exponent:
  // 2047.5 ties between 2047 (0x67FF, odd) and 2048 (0x6800) -> 2048.
  EXPECT_EQ(narrow_bits(2047.5F), 0x6800U);
}

// --- Exhaustive round trip --------------------------------------------------

TEST(Half, EveryHalfSurvivesWidenNarrow) {
  // Widening is exact, so half -> float -> half must be the identity for
  // every non-NaN pattern, and NaN-ness (plus the payload, once quieted)
  // must survive for the rest.  65536 cases is cheap; run them all.
  for (std::uint32_t bits = 0; bits <= 0xFFFFU; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const std::uint32_t f = half_bits_to_float_bits(h);
    const std::uint16_t back = float_bits_to_half_bits(f);
    const bool is_nan = (h & 0x7C00U) == 0x7C00U && (h & 0x3FFU) != 0;
    if (!is_nan) {
      ASSERT_EQ(back, h) << "half bits 0x" << std::hex << bits;
    } else {
      // Narrowing quiets signalling NaNs, so identity holds modulo the
      // quiet bit.
      ASSERT_EQ(back, h | 0x200U) << "half bits 0x" << std::hex << bits;
    }
  }
}

// --- Vectorized span conversions match the scalar reference ------------------

TEST(Half, SpanConversionsMatchScalarBitForBit) {
  // The dispatched widen/narrow may run on F16C hardware; IEEE says the
  // results must match the software RNE reference exactly, including edge
  // cases.  Mix edges with a deterministic pseudorandom fill and an odd
  // length to exercise the vector tail.
  std::vector<float> src = {0.0F,
                            -0.0F,
                            1.0F,
                            -1.0F,
                            65504.0F,
                            65520.0F,
                            -1e30F,
                            0x1.0p-14F,
                            0x1.0p-24F,
                            0x1.0p-25F,
                            1.0F + 0x1.0p-11F,
                            std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  std::uint32_t state = 0x243F6A88U;
  while (src.size() < 1013) {
    state = state * 1664525U + 1013904223U;
    src.push_back((static_cast<float>(state >> 8) / 16777216.0F - 0.5F) *
                  200000.0F);
  }
  std::vector<Half> narrowed(src.size());
  narrow(src, narrowed);
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(narrowed[i].bits, float_to_half(src[i]).bits) << "i=" << i;
  }
  std::vector<float> widened(narrowed.size());
  widen(narrowed, widened);
  for (std::size_t i = 0; i < narrowed.size(); ++i) {
    ASSERT_EQ(float_bits(widened[i]), float_bits(half_to_float(narrowed[i])))
        << "i=" << i;
  }
}

/// Inputs near scale · (fp32 tie that sits on an fp16 tie) on which
/// quantize's divide and a reciprocal multiply disagree: the cases that make
/// the codec divide.  Found by scanning a few ulps around each candidate.
std::vector<double> reciprocal_rounding_edges(double scale) {
  std::vector<double> edges;
  // fp16 ties in [0.5, 1), rounding down (k even) and up (k odd), each
  // nudged to the fp32 tie just above it.
  for (int k = 0; k < 1024; k += 31) {
    const double tie = 0.5 + (k + 0.5) * 0x1p-11;
    double x = scale * (tie + 0x1p-25);
    for (int step = 0; step < 8; ++step) x = std::nextafter(x, 0.0);
    for (int step = 0; step < 16; ++step, x = std::nextafter(x, 2.0 * x)) {
      if (float_to_half(static_cast<float>(x / scale)).bits !=
          float_to_half(static_cast<float>(x * (1.0 / scale))).bits) {
        edges.push_back(x);
      }
    }
  }
  return edges;
}

TEST(Half, CodecKernelsMatchScalarBodiesBitForBit) {
  // max_abs / quantize / dequantize on both backends against the codec's
  // per-entry formulas: edge values (NaN first and mid-vector, ±inf, signed
  // zeros, subnormals, past FLT_MAX) at every length 0-40 for the vector
  // tails, then a long pseudorandom span; the maximum against a NaN at every
  // pair of positions; and the inputs a reciprocal multiply would round
  // differently.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> src = {nan,  -0.0,    0.0,   1.0,    -0.75, 0x1p-1074,
                             1e39, -3.5e38, inf,   -1e-310, nan,  0.5 + 0x1p-12,
                             -inf, 3e-8,    1e-46, -2.0};
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  while (src.size() < 1013) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    src.push_back((static_cast<double>(state >> 11) * 0x1p-53 - 0.5) * 3.0);
  }
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::vector<std::size_t> lengths(41);  // 0-40, then the whole span
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.push_back(src.size());
  const auto saved = kernel_backend();
  for (const auto backend :
       {KernelBackend::kScalar, KernelBackend::kVectorized}) {
    set_kernel_backend(backend);
    for (const std::size_t len : lengths) {
      const std::span<const double> x(src.data(), len);
      double expected = 0.0;
      for (const double v : x) expected = std::max(expected, std::abs(v));
      ASSERT_EQ(bits(max_abs(x)), bits(expected)) << "len=" << len;
      for (const double scale : {1.0, 0.7, 0x1p-30, 3.0e5, inf}) {
        std::vector<Half> out(len);
        quantize(x, scale, out);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(out[i].bits,
                    float_to_half(static_cast<float>(x[i] / scale)).bits)
              << "len=" << len << " i=" << i << " scale=" << scale;
        }
      }
    }
    // The maximum and a NaN at every pair of positions across three vector
    // steps: a NaN may never displace the running maximum.
    std::vector<double> mixed(src.begin() + 20, src.begin() + 68);
    for (std::size_t top = 0; top < mixed.size(); ++top) {
      for (std::size_t hole = 0; hole < mixed.size(); ++hole) {
        if (hole == top) continue;
        std::vector<double> x = mixed;
        x[top] = -100.0;
        x[hole] = nan;
        ASSERT_EQ(max_abs(x), 100.0) << "top=" << top << " nan=" << hole;
      }
    }
    std::size_t edge_count = 0;
    for (const double scale : {0.7, 1.1, 0.9, 2.2e-3}) {
      // Eight copies, so every edge also runs through the 8-wide body.
      std::vector<double> edges;
      for (int copy = 0; copy < 8; ++copy) {
        const auto found = reciprocal_rounding_edges(scale);
        edges.insert(edges.end(), found.begin(), found.end());
      }
      edge_count += edges.size();
      std::vector<Half> out(edges.size());
      quantize(edges, scale, out);
      for (std::size_t i = 0; i < edges.size(); ++i) {
        ASSERT_EQ(out[i].bits,
                  float_to_half(static_cast<float>(edges[i] / scale)).bits)
            << "x=" << edges[i] << " scale=" << scale;
      }
    }
    ASSERT_GT(edge_count, 0U);
    std::vector<Half> every(65536 + 5);  // every pattern, plus a tail
    for (std::size_t i = 0; i < every.size(); ++i) {
      every[i].bits = static_cast<std::uint16_t>(i);
    }
    for (const double scale : {1.0, 0.7, 0x1p-1000, 1e300, inf}) {
      std::vector<double> out(every.size());
      dequantize(every, scale, out);
      for (std::size_t i = 0; i < every.size(); ++i) {
        ASSERT_EQ(bits(out[i]),
                  bits(static_cast<double>(half_to_float(every[i])) * scale))
            << "half bits 0x" << std::hex << every[i].bits;
      }
    }
  }
  set_kernel_backend(saved);
}

TEST(Half, SharedPrecisionModeRoundTrips) {
  const auto saved = shared_precision();
  set_shared_precision(SharedPrecision::kFp16);
  EXPECT_EQ(shared_precision(), SharedPrecision::kFp16);
  EXPECT_STREQ(shared_precision_name(SharedPrecision::kFp16), "fp16");
  EXPECT_EQ(shared_value_bytes(SharedPrecision::kFp16), 2U);
  set_shared_precision(SharedPrecision::kFp32);
  EXPECT_EQ(shared_value_bytes(SharedPrecision::kFp32), 4U);
  set_shared_precision(saved);
}

}  // namespace
}  // namespace tpa::linalg

namespace tpa::cluster {
namespace {

std::vector<double> ramp_delta(std::size_t dim) {
  std::vector<double> delta(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    const double sign = (i % 2 == 0) ? 1.0 : -1.0;
    delta[i] = sign * (0.25 + static_cast<double>(i % 97) * 1e-2);
  }
  return delta;
}

// --- Dense-quantized layout --------------------------------------------------

TEST(DeltaCodec, DenseRoundTripWithinQuantizationError) {
  const auto delta = ramp_delta(1000);
  const auto encoded = encode_delta(delta);
  EXPECT_TRUE(encoded.dense);
  EXPECT_TRUE(encoded.indices.empty());
  ASSERT_EQ(encoded.payload.size(), delta.size());
  ASSERT_EQ(encoded.scales.size(), (delta.size() + 255) / 256);
  EXPECT_EQ(encoded.wire_bytes(), quantized_delta_wire_bytes(delta.size()));

  const auto decoded = decode_delta(encoded);
  ASSERT_EQ(decoded.size(), delta.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    // Stored ratio sits in [-1, 1]: error is bounded by half an fp16 ulp of
    // the ratio times the block scale (2^-11 relative to the block max).
    const double bound =
        static_cast<double>(encoded.scales[i / 256]) * 0x1.0p-11;
    ASSERT_NEAR(decoded[i], delta[i], bound) << "i=" << i;
  }
}

TEST(DeltaCodec, PowerOfTwoRatiosRoundTripExactly) {
  // When every Δ_i / scale is a power of two the fp16 payload is exact, so
  // decode must reproduce the input bit-for-bit.
  std::vector<double> delta = {4.0, -2.0, 1.0, 0.5, -0.25, 0.125, 0.0, -4.0};
  const auto decoded = decode_delta(encode_delta(delta));
  ASSERT_EQ(decoded.size(), delta.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    ASSERT_EQ(decoded[i], delta[i]) << "i=" << i;
  }
}

TEST(DeltaCodec, ZeroVectorDecodesExactlyZero) {
  const std::vector<double> delta(300, 0.0);
  const auto encoded = encode_delta(delta);
  const auto decoded = decode_delta(encoded);
  for (const double v : decoded) EXPECT_EQ(v, 0.0);
  // Still dense and still the deterministic wire size.
  EXPECT_EQ(encoded.wire_bytes(), quantized_delta_wire_bytes(300));
}

// --- Sparse layout -----------------------------------------------------------

TEST(DeltaCodec, ThresholdDropsNearZeroEntries) {
  std::vector<double> delta(600, 1e-6);
  delta[3] = 10.0;
  delta[17] = -8.0;
  delta[599] = 6.0;
  DeltaCodecConfig config;
  config.threshold = 0.5;  // keep |Δ| > 5
  const auto encoded = encode_delta(delta, config);
  EXPECT_FALSE(encoded.dense);
  ASSERT_EQ(encoded.indices.size(), 3U);
  EXPECT_EQ(encoded.indices[0], 3U);
  EXPECT_EQ(encoded.indices[1], 17U);
  EXPECT_EQ(encoded.indices[2], 599U);
  EXPECT_LT(encoded.wire_bytes(), quantized_delta_wire_bytes(600));

  const auto decoded = decode_delta(encoded);
  EXPECT_EQ(decoded[0], 0.0);    // dropped entries decode as exact zeros
  EXPECT_EQ(decoded[598], 0.0);
  EXPECT_NEAR(decoded[3], 10.0, 10.0 * 0x1.0p-11);
  EXPECT_NEAR(decoded[17], -8.0, 10.0 * 0x1.0p-11);
  EXPECT_NEAR(decoded[599], 6.0, 10.0 * 0x1.0p-11);
}

// --- Wire-size formulas ------------------------------------------------------

TEST(DeltaCodec, WireSizeFormulasAndReductionFloor) {
  EXPECT_EQ(dense_delta_wire_bytes(1024), 1024 * 8 + 8);
  // header(12) + payload(2/coord) + scales(4/block) + checksum(8)
  EXPECT_EQ(quantized_delta_wire_bytes(1024), 12U + 2048U + 16U + 8U);
  EXPECT_EQ(quantized_delta_wire_bytes(1, 256), 12U + 2U + 4U + 8U);
  // The precision ablation gates on >= 2x reduction; the dense-quantized
  // layout delivers ~3.9x at realistic dimensions.
  const auto dim = std::size_t{8192};
  EXPECT_GE(dense_delta_wire_bytes(dim),
            2 * quantized_delta_wire_bytes(dim));
}

// --- Integrity under transit corruption --------------------------------------

TEST(DeltaCodec, ChecksumCatchesPayloadBitFlipInTransit) {
  auto encoded = encode_delta(ramp_delta(512));
  ASSERT_EQ(compressed_delta_checksum(encoded), encoded.checksum);
  const auto sent = encoded.checksum;
  corrupt_compressed_in_transit(encoded);  // flips one quantized payload bit
  EXPECT_NE(compressed_delta_checksum(encoded), sent);
}

TEST(DeltaCodec, ChecksumCoversEveryEncodedField) {
  const auto reference = encode_delta(ramp_delta(512), {0.5, 256});
  ASSERT_FALSE(reference.dense);
  const auto sent = reference.checksum;

  auto flipped_payload = reference;
  flipped_payload.payload.front().bits ^= 0x0400U;
  EXPECT_NE(compressed_delta_checksum(flipped_payload), sent);

  auto flipped_index = reference;
  flipped_index.indices.back() ^= 1U;
  EXPECT_NE(compressed_delta_checksum(flipped_index), sent);

  auto flipped_scale = reference;
  flipped_scale.scales.front() += 1.0F;
  EXPECT_NE(compressed_delta_checksum(flipped_scale), sent);

  auto flipped_layout = reference;
  flipped_layout.dense = true;
  EXPECT_NE(compressed_delta_checksum(flipped_layout), sent);
}

TEST(DeltaCodec, CorruptionFallsBackForEmptyPayload) {
  // An all-dropped sparse delta has no payload bits to flip; corruption must
  // still dirty the image so the checksum catches it.
  std::vector<double> delta(64, 0.0);
  DeltaCodecConfig config;
  config.threshold = 0.5;
  auto encoded = encode_delta(delta, config);
  ASSERT_TRUE(encoded.payload.empty());
  const auto sent = encoded.checksum;
  corrupt_compressed_in_transit(encoded);
  EXPECT_NE(compressed_delta_checksum(encoded), sent);
}

// --- Golden: every encoded and every decoded bit -----------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

// Signed zeros, subnormal doubles, doubles past FLT_MAX (their block scale
// rounds to inf), NaN and the infinities, between ordinary values.
constexpr double kEdgeValues[] = {
    0.0,    -0.0,     0x1p-1074, -0x1.8p-1040, 1e-310,
    std::numeric_limits<double>::quiet_NaN(),  kInf,  -kInf,
    1e39,   -3.5e38,  0x1.fffffep127,          1.0,   -0.75, 3e-8};
constexpr double kFiniteEdgeValues[] = {
    0.0, -0.0, 0x1p-1074, -0x1.8p-1040, 1e-310, 1e39, -3.5e38,
    0x1.fffffep127, 1.0, -0.75, 3e-8};
// Ratios (against a block scale of 1) that tie in the fp16 rounding, in the
// fp64 -> fp32 rounding, or in the fp16 rounding only after the fp32 one.
constexpr double kTieValues[] = {
    0.5 + 0x1p-12,  0.5 + 0x3p-12,  1.0 - 0x1p-12, 0x1p-25,
    0x3p-25,        0x5p-25,        0.75 + 0x1p-25, 0.75 + 0x3p-25,
    0.5 + 0x1p-12 + 0x1p-40};

/// Deterministic uniform draw in [-1, 1) from (family, dim, i).
double golden_uniform(int family, std::size_t dim, std::size_t i) {
  std::uint64_t state = (static_cast<std::uint64_t>(family) << 48) ^
                        (static_cast<std::uint64_t>(dim) << 24) ^ i;
  for (int round = 0; round < 2; ++round) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return static_cast<double>(state >> 11) * 0x1p-52 - 1.0;
}

/// Delta `family` of dimension `dim`: 0 edges among ordinary values, 1 the
/// same without NaN/inf, 2 runs of 8 entries whose fp32 scale underflows to
/// zero, 3 nothing but underflowing entries, 4 rounding ties.
std::vector<double> golden_delta(int family, std::size_t dim) {
  std::vector<double> delta(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    const double r = golden_uniform(family, dim, i);
    switch (family) {
      case 0:
        delta[i] = i % 3 == 0 ? kEdgeValues[(i / 3) % std::size(kEdgeValues)]
                              : 2.0 * r;
        break;
      case 1:
        delta[i] = i % 3 == 0 ? kFiniteEdgeValues[(i / 3) %
                                                  std::size(kFiniteEdgeValues)]
                              : 2.0 * r;
        break;
      case 2:
        delta[i] = (i / 8) % 2 == 0 ? 1e-46 * r : r;
        break;
      case 3:
        delta[i] = 1e-300 * r;
        break;
      default: {
        const double sign = r < 0.0 ? -1.0 : 1.0;
        delta[i] = sign * (i % 7 == 0 ? 1.0
                                      : kTieValues[i % std::size(kTieValues)]);
        break;
      }
    }
  }
  return delta;
}

/// Digest of every frame and every decoded image of `family` over dims 1-17
/// and 4096, blocks 1, 7 and 256, dense and threshold layouts.
std::uint64_t golden_digest(int family) {
  std::vector<std::size_t> dims;
  for (std::size_t dim = 1; dim <= 17; ++dim) dims.push_back(dim);
  dims.push_back(4096);
  sparse::Fnv1a digest;
  for (const std::size_t dim : dims) {
    const auto delta = golden_delta(family, dim);
    for (const std::uint32_t block : {1U, 7U, 256U}) {
      for (const double threshold : {0.0, 0.3}) {
        const auto frame = encode_delta(delta, {threshold, block});
        const std::uint32_t header[] = {frame.dim, frame.block,
                                        frame.dense ? 1U : 0U};
        digest.update(header, sizeof(header));
        digest.update(frame.indices.data(),
                      frame.indices.size() * sizeof(std::uint32_t));
        digest.update(frame.payload.data(),
                      frame.payload.size() * sizeof(linalg::Half));
        digest.update(frame.scales.data(), frame.scales.size() * sizeof(float));
        std::vector<double> decoded(dim, 7.0);  // sparse decode must zero it
        decode_delta(frame, decoded);
        digest.update(decoded.data(), decoded.size() * sizeof(double));
      }
    }
  }
  return digest.digest();
}

TEST(DeltaCodec, EncodedImageMatchesGolden) {
  // Recorded from the original per-entry codec loops (software fp16, scalar
  // division): the dispatched kernels must reproduce them on both backends.
  constexpr std::uint64_t kGolden[] = {
      948879711004349876ULL, 13707224387321913017ULL, 3450896978466416916ULL,
      2227025853931596171ULL, 7297818388442909480ULL};
  const auto saved = linalg::kernel_backend();
  for (const auto backend :
       {linalg::KernelBackend::kScalar, linalg::KernelBackend::kVectorized}) {
    linalg::set_kernel_backend(backend);
    for (int family = 0; family < 5; ++family) {
      EXPECT_EQ(golden_digest(family), kGolden[family])
          << "family " << family << " on the "
          << linalg::kernel_backend_name(backend) << " backend";
    }
  }
  linalg::set_kernel_backend(saved);
}

TEST(DeltaCodec, ReusedFrameMatchesFreshEncode) {
  // One frame carrying dense, sparse, empty and dense again must end every
  // encode exactly as a fresh frame would — no index list or stale payload
  // survives a layout change.
  CompressedDelta frame;
  const std::vector<double> empty;
  const std::pair<std::vector<double>, DeltaCodecConfig> inputs[] = {
      {ramp_delta(600), {0.0, 256}}, {ramp_delta(300), {0.3, 7}},
      {empty, {0.5, 256}},           {ramp_delta(33), {0.0, 7}},
      {ramp_delta(1000), {0.5, 1}},  {ramp_delta(5), {0.0, 256}}};
  for (const auto& [delta, config] : inputs) {
    encode_delta(delta, config, frame);
    const auto fresh = encode_delta(delta, config);
    EXPECT_EQ(frame.dim, fresh.dim);
    EXPECT_EQ(frame.block, fresh.block);
    EXPECT_EQ(frame.dense, fresh.dense);
    EXPECT_EQ(frame.indices, fresh.indices);
    ASSERT_EQ(frame.payload.size(), fresh.payload.size());
    for (std::size_t i = 0; i < frame.payload.size(); ++i) {
      ASSERT_EQ(frame.payload[i].bits, fresh.payload[i].bits) << "i=" << i;
    }
    EXPECT_EQ(frame.scales, fresh.scales);
    EXPECT_EQ(frame.checksum, fresh.checksum);
  }
}

// --- Transit hash: every single-bit flip ------------------------------------

/// Flips every bit of `bytes` bytes at `data`, one at a time, calling
/// `caught()` after each flip; returns the flips it missed.
template <typename Caught>
std::size_t missed_flips(void* data, std::size_t bytes, const Caught& caught) {
  auto* raw = static_cast<unsigned char*>(data);
  std::size_t missed = 0;
  for (std::size_t b = 0; b < bytes; ++b) {
    for (int bit = 0; bit < 8; ++bit) {
      raw[b] ^= static_cast<unsigned char>(1U << bit);
      if (!caught()) ++missed;
      raw[b] ^= static_cast<unsigned char>(1U << bit);
    }
  }
  return missed;
}

/// Misses over every bit of every field of `frame`.
std::size_t missed_frame_flips(CompressedDelta frame) {
  const std::uint64_t sent = frame.checksum;
  const auto caught = [&] { return compressed_delta_checksum(frame) != sent; };
  std::size_t missed = missed_flips(&frame.dim, sizeof(frame.dim), caught) +
                       missed_flips(&frame.block, sizeof(frame.block), caught);
  frame.dense = !frame.dense;  // the layout flag is one bit on the wire
  if (!caught()) ++missed;
  frame.dense = !frame.dense;
  return missed +
         missed_flips(frame.indices.data(),
                      frame.indices.size() * sizeof(std::uint32_t), caught) +
         missed_flips(frame.payload.data(),
                      frame.payload.size() * sizeof(linalg::Half), caught) +
         missed_flips(frame.scales.data(), frame.scales.size() * sizeof(float),
                      caught);
}

TEST(DeltaCodec, ChecksumCatchesEverySingleBitFlip) {
  const auto dense = encode_delta(ramp_delta(300));
  ASSERT_TRUE(dense.dense);
  EXPECT_EQ(missed_frame_flips(dense), 0U);

  const auto sparse = encode_delta(golden_delta(2, 300), {0.3, 7});
  ASSERT_FALSE(sparse.dense);
  ASSERT_GT(sparse.indices.size(), 50U);
  EXPECT_EQ(missed_frame_flips(sparse), 0U);

  auto raw = ramp_delta(100);
  const std::uint64_t sent = delta_checksum(raw);
  EXPECT_EQ(missed_flips(raw.data(), raw.size() * sizeof(double),
                         [&] { return delta_checksum(raw) != sent; }),
            0U);
}

TEST(DeltaCodec, ChecksumCatchesPairedSignFlips) {
  // A multiply carries a word's top bit only upward, so without the lane
  // rotation two flips of one high bit would cancel — here the sign bits of
  // two fp64 entries, in the same lane or in different ones.
  auto raw = ramp_delta(64);
  const std::uint64_t sent = delta_checksum(raw);
  for (std::size_t a = 0; a < 16; ++a) {
    for (std::size_t b = a + 1; b < 16; ++b) {
      raw[a] = -raw[a];
      raw[b] = -raw[b];
      EXPECT_NE(delta_checksum(raw), sent) << "entries " << a << ", " << b;
      raw[a] = -raw[a];
      raw[b] = -raw[b];
    }
  }
}

// --- Validation --------------------------------------------------------------

TEST(DeltaCodec, RejectsInvalidConfigAndStructure) {
  const auto delta = ramp_delta(32);
  EXPECT_THROW(encode_delta(delta, {0.0, 0}), std::invalid_argument);
  EXPECT_THROW(encode_delta(delta, {-0.1, 256}), std::invalid_argument);
  EXPECT_THROW(
      encode_delta(delta, {std::numeric_limits<double>::quiet_NaN(), 256}),
      std::invalid_argument);
  EXPECT_THROW(
      encode_delta(delta, {std::numeric_limits<double>::infinity(), 256}),
      std::invalid_argument);

  const auto encoded = encode_delta(delta);
  std::vector<double> wrong_size(encoded.dim + 1);
  EXPECT_THROW(decode_delta(encoded, wrong_size), std::invalid_argument);

  auto truncated = encoded;
  truncated.payload.pop_back();  // dense payload no longer covers dim
  std::vector<double> out(encoded.dim);
  EXPECT_THROW(decode_delta(truncated, out), std::invalid_argument);

  auto missing_scales = encoded;
  missing_scales.scales.clear();
  EXPECT_THROW(decode_delta(missing_scales, out), std::invalid_argument);
}

TEST(DeltaCodec, RejectsOutOfRangeOrUnsortedIndices) {
  // A hostile sparse frame must fail as a typed error before decode writes
  // through its index list.
  const auto reference = encode_delta(ramp_delta(64), {0.5, 256});
  ASSERT_FALSE(reference.dense);
  ASSERT_GE(reference.indices.size(), 3U);
  std::vector<double> out(reference.dim);
  EXPECT_NO_THROW(decode_delta(reference, out));

  auto out_of_range = reference;
  out_of_range.indices.back() = 1000000;
  EXPECT_THROW(decode_delta(out_of_range, out), std::invalid_argument);
  out_of_range.indices.back() = reference.dim;  // one past the end
  EXPECT_THROW(decode_delta(out_of_range, out), std::invalid_argument);

  auto duplicate = reference;
  duplicate.indices[1] = duplicate.indices[0];
  EXPECT_THROW(decode_delta(duplicate, out), std::invalid_argument);

  auto descending = reference;
  std::swap(descending.indices[0], descending.indices[1]);
  EXPECT_THROW(decode_delta(descending, out), std::invalid_argument);
}

}  // namespace
}  // namespace tpa::cluster
