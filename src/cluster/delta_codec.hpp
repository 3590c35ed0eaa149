// Compressed delta exchange for the cluster drivers (DESIGN.md §16), plus
// the checksum and corruption model of the raw fp64 exchange.
//
// Worker → master shared-vector deltas dominate the bytes the distributed
// solvers put on the wire.  The codec here halves (and more) that traffic by
// quantizing the delta to an fp16 payload with one fp32 scale per block of
// entries: scale_b = max|Δ_i| over the block, payload_i = half(Δ_i / scale_b),
// so every stored ratio sits in [-1, 1] where binary16 carries ~11 bits of
// relative precision.  An optional sparsification pass drops entries with
// |Δ_i| <= threshold · max|Δ| before quantizing, trading exactness for an
// index list that pays off once most of the delta is numerically dead.
//
// Integrity: the transit checksum the uncompressed exchange computes over the
// raw fp64 delta is preserved — it is taken over the *encoded* image (header,
// index list, fp16 payload bits, fp32 scale bits), so a single bit flipped in
// transit anywhere in the compressed representation still fails verification
// on the master and the delta is discarded, never silently dequantized.  The
// hash is word-wise — four lanes per field, each field from a fixed seed, every
// step a bijection (delta_codec.cpp) — so it catches every single-bit flip at
// a fraction of byte-wise FNV-1a's cost.  Transit frames are never persisted;
// every on-disk format keeps its FNV-1a (sparse/io_binary.hpp).
//
// Speed: the codec runs at memory speed.  Block max-abs, quantization and
// dequantization are the dispatched linalg::max_abs / quantize / dequantize
// kernels (F16C on the vectorized backend, bit-identical to the scalar
// bodies), and encode_delta can refill a caller-owned frame so the dense
// exchange allocates nothing in steady state.
//
// Determinism: with threshold == 0 the layout is dense-quantized — no index
// list, the payload covers every coordinate — and the wire size is a pure
// function of the dimension (quantized_delta_wire_bytes).  That is the size
// the placement cost model prices, keeping the predicted-vs-simulated drift
// audit exact on compressed fleets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/half.hpp"

namespace tpa::cluster {

struct DeltaCodecConfig {
  /// Relative sparsification threshold: entries with |Δ_i| <= threshold ·
  /// max|Δ| are dropped (decoded as exact zeros).  0 keeps every entry and
  /// selects the deterministic dense-quantized layout.
  double threshold = 0.0;
  /// Entries per fp32 scale block.  256 costs 2 bits/entry of scale
  /// overhead — ~1% over the bare fp16 payload.
  std::uint32_t block = 256;
};

/// One encoded delta, as it travels worker → master.
struct CompressedDelta {
  std::uint32_t dim = 0;    // coordinates of the decoded vector
  std::uint32_t block = 256;
  bool dense = true;        // no index list; payload covers every coordinate
  std::vector<std::uint32_t> indices;  // sparse layout only, ascending
  std::vector<linalg::Half> payload;   // quantized survivors (Δ_i / scale)
  std::vector<float> scales;           // one per `block` payload entries
  std::uint64_t checksum = 0;          // transit hash of the encoded image

  /// Bytes this delta occupies on the wire: header + index list + fp16
  /// payload + fp32 scales.
  std::size_t wire_bytes() const noexcept;
};

/// Wire size of the dense-quantized layout (threshold == 0) — a pure
/// function of the dimension, priced by the placement cost model.
std::size_t quantized_delta_wire_bytes(std::size_t dim,
                                       std::uint32_t block = 256) noexcept;

/// Wire size of the uncompressed exchange: the raw fp64 delta vector plus
/// its trailing checksum.  The baseline of the bytes-on-wire metric.
std::size_t dense_delta_wire_bytes(std::size_t dim) noexcept;

/// Encodes `delta` into `out`, reusing its vectors' capacity: every field is
/// overwritten, so one frame can carry delta after delta; the dense layout
/// then allocates nothing.  Throws std::invalid_argument on block == 0 or a
/// threshold that is negative, NaN or infinite.  out.checksum already covers
/// the encoding.
void encode_delta(std::span<const double> delta,
                  const DeltaCodecConfig& config, CompressedDelta& out);
CompressedDelta encode_delta(std::span<const double> delta,
                             const DeltaCodecConfig& config = {});

/// Transit hash of the encoded image (header, indices, payload, scales);
/// what the master recomputes on receipt.
std::uint64_t compressed_delta_checksum(const CompressedDelta& delta);

/// Dequantizes into `out` (overwrites; dropped entries decode to 0).
/// Throws std::invalid_argument if out.size() != delta.dim or the encoding
/// is structurally inconsistent — including sparse indices that are not
/// strictly ascending or not below dim.
void decode_delta(const CompressedDelta& delta, std::span<double> out);
std::vector<double> decode_delta(const CompressedDelta& delta);

/// Simulated transit corruption: flips one bit of the quantized payload
/// (falling back to an index, then a scale, for empty payloads) — the
/// compressed analogue of corrupt_in_transit on raw deltas.  The checksum
/// field is left as sent, so verification must fail.
void corrupt_compressed_in_transit(CompressedDelta& delta);

/// Transit hash of a raw fp64 delta: the uncompressed exchange's checksum.
std::uint64_t delta_checksum(std::span<const double> delta);

/// Simulated transit corruption of a raw delta: flips one mantissa bit of
/// the first entry.  The transit hash changes under any single-bit flip,
/// which is the point — the master must notice without trusting the
/// payload.
void corrupt_in_transit(std::span<double> delta);

}  // namespace tpa::cluster
