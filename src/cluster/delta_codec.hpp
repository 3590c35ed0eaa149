// Compressed delta exchange for the cluster drivers (DESIGN.md §16), plus
// the checksum and corruption model of the raw fp64 exchange.
//
// Worker → master shared-vector deltas dominate the bytes the distributed
// solvers put on the wire.  The codec here nearly quarters that traffic by
// quantizing the delta to an fp16 payload with one fp32 scale per
// kDeltaBlock entries: scale_b = max|Δ_i| over the block, payload_i =
// half(Δ_i / scale_b), so every stored ratio sits in [-1, 1] where binary16
// carries ~11 bits of relative precision.
//
// Integrity: the transit checksum the uncompressed exchange computes over the
// raw fp64 delta is preserved — it is taken over the *encoded* image (header,
// fp16 payload bits, fp32 scale bits), so a single bit flipped in transit
// anywhere in the compressed representation still fails verification on the
// master and the delta is discarded, never silently dequantized.  The hash
// is word-wise — four lanes per field, each field from a fixed seed, every
// step a bijection (delta_codec.cpp) — so it catches every single-bit flip
// at a fraction of byte-wise FNV-1a's cost.  Transit frames are never
// persisted; every on-disk format keeps its FNV-1a (sparse/io_binary.hpp).
//
// Speed: the codec runs at memory speed.  Block max-abs, quantization and
// dequantization are the dispatched linalg::max_abs / quantize / dequantize
// kernels (F16C on the vectorized backend, bit-identical to the scalar
// bodies), and encode_delta can refill a caller-owned frame so the exchange
// allocates nothing in steady state.
//
// Determinism: the payload covers every coordinate, so the wire size is a
// pure function of the dimension (quantized_delta_wire_bytes).  That is the
// size the placement cost model prices, keeping the predicted-vs-simulated
// drift audit exact on compressed fleets: every frame is the one the cost
// model prices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/half.hpp"

namespace tpa::cluster {

/// Entries per fp32 scale block.  256 costs 2 bits/entry of scale overhead —
/// ~1% over the bare fp16 payload.
inline constexpr std::uint32_t kDeltaBlock = 256;

/// One encoded delta, as it travels worker → master.
struct CompressedDelta {
  std::uint32_t dim = 0;               // coordinates of the decoded vector
  std::vector<linalg::Half> payload;   // Δ_i / scale, one per coordinate
  std::vector<float> scales;           // one per kDeltaBlock payload entries
  std::uint64_t checksum = 0;          // transit hash of the encoded image

  /// Bytes this delta occupies on the wire: header + fp16 payload + fp32
  /// scales + checksum.
  std::size_t wire_bytes() const noexcept;
};

/// Wire size of a delta of `dim` coordinates — a pure function of the
/// dimension, priced by the placement cost model.
std::size_t quantized_delta_wire_bytes(std::size_t dim) noexcept;

/// Wire size of the uncompressed exchange: the raw fp64 delta vector plus
/// its trailing checksum.  The baseline of the bytes-on-wire metric.
std::size_t dense_delta_wire_bytes(std::size_t dim) noexcept;

/// Encodes `delta` into `out`, reusing its vectors' capacity: every field is
/// overwritten, so one frame can carry delta after delta and allocates
/// nothing once it has carried one of the largest dimension.  out.checksum
/// already covers the encoding.
void encode_delta(std::span<const double> delta, CompressedDelta& out);
CompressedDelta encode_delta(std::span<const double> delta);

/// Transit hash of the encoded image (header, payload, scales); what the
/// master recomputes on receipt.
std::uint64_t compressed_delta_checksum(const CompressedDelta& delta);

/// Dequantizes into `out` (overwrites).  Throws std::invalid_argument if
/// out.size() != delta.dim or the payload and scales do not cover dim.
void decode_delta(const CompressedDelta& delta, std::span<double> out);
std::vector<double> decode_delta(const CompressedDelta& delta);

/// Simulated transit corruption: flips one bit of the quantized payload
/// (falling back to the header for an empty delta) — the compressed
/// analogue of corrupt_in_transit on raw deltas.  The checksum field is
/// left as sent, so verification must fail.
void corrupt_compressed_in_transit(CompressedDelta& delta);

/// Transit hash of a raw fp64 delta: the uncompressed exchange's checksum.
std::uint64_t delta_checksum(std::span<const double> delta);

/// Simulated transit corruption of a raw delta: flips one mantissa bit of
/// the first entry.  The transit hash changes under any single-bit flip,
/// which is the point — the master must notice without trusting the
/// payload.
void corrupt_in_transit(std::span<double> delta);

}  // namespace tpa::cluster
