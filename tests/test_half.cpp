// binary16 conversion edge cases (subnormals, infinities, NaN payloads, RNE
// ties, overflow saturation) and the compressed delta codec: quantized
// round-trip accuracy, wire-size formulas, and the checksum catching bit
// flips injected into the encoded image in transit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cluster/delta_codec.hpp"
#include "linalg/half.hpp"

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

}  // namespace
}  // namespace tpa::cluster
