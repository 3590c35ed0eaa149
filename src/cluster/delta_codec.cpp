#include "cluster/delta_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "sparse/io_binary.hpp"

namespace tpa::cluster {
namespace {

// dim + block + layout flag as they'd be framed on the wire, plus the
// trailing 8-byte checksum — matches the sidecar framing elsewhere.
constexpr std::size_t kWireHeaderBytes = 3 * sizeof(std::uint32_t);
constexpr std::size_t kWireChecksumBytes = sizeof(std::uint64_t);

void validate_structure(const CompressedDelta& delta) {
  if (delta.block == 0) {
    throw std::invalid_argument("CompressedDelta: block must be positive");
  }
  if (!delta.dense && delta.indices.size() != delta.payload.size()) {
    throw std::invalid_argument(
        "CompressedDelta: sparse layout needs one index per payload entry");
  }
  if (delta.dense && delta.payload.size() != delta.dim) {
    throw std::invalid_argument(
        "CompressedDelta: dense layout must cover every coordinate");
  }
  const std::size_t blocks =
      (delta.payload.size() + delta.block - 1) / delta.block;
  if (delta.scales.size() != blocks) {
    throw std::invalid_argument(
        "CompressedDelta: scale count does not match payload blocks");
  }
}

}  // namespace

std::size_t CompressedDelta::wire_bytes() const noexcept {
  return kWireHeaderBytes + indices.size() * sizeof(std::uint32_t) +
         payload.size() * sizeof(std::uint16_t) +
         scales.size() * sizeof(float) + kWireChecksumBytes;
}

std::size_t quantized_delta_wire_bytes(std::size_t dim,
                                       std::uint32_t block) noexcept {
  const std::size_t blocks = block > 0 ? (dim + block - 1) / block : 0;
  return kWireHeaderBytes + dim * sizeof(std::uint16_t) +
         blocks * sizeof(float) + kWireChecksumBytes;
}

std::size_t dense_delta_wire_bytes(std::size_t dim) noexcept {
  return dim * sizeof(double) + kWireChecksumBytes;
}

std::uint64_t compressed_delta_checksum(const CompressedDelta& delta) {
  sparse::Fnv1a checksum;
  checksum.update(&delta.dim, sizeof(delta.dim));
  checksum.update(&delta.block, sizeof(delta.block));
  const std::uint32_t dense = delta.dense ? 1 : 0;
  checksum.update(&dense, sizeof(dense));
  if (!delta.indices.empty()) {
    checksum.update(delta.indices.data(),
                    delta.indices.size() * sizeof(std::uint32_t));
  }
  if (!delta.payload.empty()) {
    checksum.update(delta.payload.data(),
                    delta.payload.size() * sizeof(linalg::Half));
  }
  if (!delta.scales.empty()) {
    checksum.update(delta.scales.data(),
                    delta.scales.size() * sizeof(float));
  }
  return checksum.digest();
}

CompressedDelta encode_delta(std::span<const double> delta,
                             const DeltaCodecConfig& config) {
  if (config.block == 0) {
    throw std::invalid_argument("encode_delta: block must be positive");
  }
  if (!(config.threshold >= 0.0) || !std::isfinite(config.threshold)) {
    throw std::invalid_argument(
        "encode_delta: threshold must be finite and >= 0");
  }
  CompressedDelta out;
  out.dim = static_cast<std::uint32_t>(delta.size());
  out.block = config.block;
  out.dense = config.threshold == 0.0;

  // Survivor selection.  Dense layout keeps everything (the wire size must
  // stay a pure function of the dimension); sparse layout drops entries
  // below the relative threshold.
  std::vector<double> survivors;
  if (out.dense) {
    survivors.assign(delta.begin(), delta.end());
  } else {
    double max_abs = 0.0;
    for (const double v : delta) max_abs = std::max(max_abs, std::abs(v));
    const double cut = config.threshold * max_abs;
    out.indices.reserve(delta.size() / 4);
    for (std::size_t i = 0; i < delta.size(); ++i) {
      if (std::abs(delta[i]) > cut) {
        out.indices.push_back(static_cast<std::uint32_t>(i));
        survivors.push_back(delta[i]);
      }
    }
  }

  // Per-block max-abs scaling keeps every stored ratio in [-1, 1]; the scale
  // is rounded to fp32 first so encode and decode agree on the exact factor.
  out.payload.resize(survivors.size());
  const std::size_t blocks =
      (survivors.size() + config.block - 1) / config.block;
  out.scales.resize(blocks, 0.0F);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * config.block;
    const std::size_t end =
        std::min(begin + config.block, survivors.size());
    double max_abs = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      max_abs = std::max(max_abs, std::abs(survivors[i]));
    }
    const auto scale = static_cast<float>(max_abs);
    out.scales[b] = scale;
    for (std::size_t i = begin; i < end; ++i) {
      out.payload[i] =
          scale > 0.0F
              ? linalg::float_to_half(static_cast<float>(
                    survivors[i] / static_cast<double>(scale)))
              : linalg::Half{};
    }
  }
  out.checksum = compressed_delta_checksum(out);
  return out;
}

void decode_delta(const CompressedDelta& delta, std::span<double> out) {
  validate_structure(delta);
  if (out.size() != delta.dim) {
    throw std::invalid_argument(
        "decode_delta: output size does not match the encoded dimension");
  }
  if (!delta.dense) {
    std::fill(out.begin(), out.end(), 0.0);
  }
  for (std::size_t i = 0; i < delta.payload.size(); ++i) {
    const double scale =
        static_cast<double>(delta.scales[i / delta.block]);
    const double value =
        static_cast<double>(linalg::half_to_float(delta.payload[i])) * scale;
    out[delta.dense ? i : delta.indices[i]] = value;
  }
}

std::vector<double> decode_delta(const CompressedDelta& delta) {
  std::vector<double> out(delta.dim, 0.0);
  decode_delta(delta, out);
  return out;
}

void corrupt_compressed_in_transit(CompressedDelta& delta) {
  // Flip one low payload bit — the least detectable change a transit fault
  // can make to the quantized image.  FNV-1a over the encoding still
  // diverges on any single-bit flip.
  if (!delta.payload.empty()) {
    delta.payload.front().bits ^= 1U;
  } else if (!delta.indices.empty()) {
    delta.indices.front() ^= 1U;
  } else if (!delta.scales.empty()) {
    auto bits = std::bit_cast<std::uint32_t>(delta.scales.front());
    delta.scales.front() = std::bit_cast<float>(bits ^ 1U);
  } else {
    // Everything was sparsified away: the only bits left on the wire are the
    // header, so the flip lands there.
    delta.dim ^= 1U;
  }
}

std::uint64_t delta_checksum(std::span<const double> delta) {
  return sparse::fnv1a(delta.data(), delta.size() * sizeof(double));
}

void corrupt_in_transit(std::span<double> delta) {
  if (delta.empty()) return;
  std::uint64_t bits = 0;
  std::memcpy(&bits, delta.data(), sizeof(bits));
  bits ^= 0x1ULL;
  std::memcpy(delta.data(), &bits, sizeof(bits));
}

}  // namespace tpa::cluster
