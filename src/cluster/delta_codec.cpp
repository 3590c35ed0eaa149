#include "cluster/delta_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace tpa::cluster {
namespace {

// dim + block + layout flag as they'd be framed on the wire, plus the
// trailing 8-byte checksum — matches the sidecar framing elsewhere.
constexpr std::size_t kWireHeaderBytes = 3 * sizeof(std::uint32_t);
constexpr std::size_t kWireChecksumBytes = sizeof(std::uint64_t);

// ---- Transit hash ----------------------------------------------------------
// Four lanes per field, lane k taking words k, k+4, k+8, ...  One step,
// h -> rotl((h ^ w)·p, 31) with p odd, is a bijection of h for a fixed word
// and of the word for a fixed h, so a flipped bit changes its lane and every
// later step carries the difference through.  The rotation feeds the high
// bits, which a multiply only carries upward, back to the low ones, so two
// flips of one high bit cannot cancel.
constexpr std::uint64_t kLanePrimes[4] = {
    0x9E3779B185EBCA87ULL, 0xC2B2AE3D27D4EB4FULL, 0x165667B19E3779F9ULL,
    0xD6E8FEB86659FD93ULL};
constexpr std::uint64_t kHashSeed = 0x27D4EB2F165667C5ULL;
constexpr std::size_t kHashStep = sizeof(kLanePrimes);  // bytes per step

constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t word,
                            std::uint64_t prime) noexcept {
  return std::rotl((h ^ word) * prime, 31);
}

/// One field's digest from the fixed seed — never from another field's, so a
/// flip in one field changes exactly one of the digests folded below.  The
/// tail is zero-padded to a full step and the byte length is folded in.
std::uint64_t hash_field(const void* data, std::size_t bytes) noexcept {
  std::uint64_t lanes[4] = {kHashSeed, kHashSeed + 1, kHashSeed + 2,
                            kHashSeed + 3};
  const auto consume = [&lanes](const unsigned char* step) {
    for (std::size_t k = 0; k < 4; ++k) {
      std::uint64_t word = 0;
      std::memcpy(&word, step + k * sizeof(word), sizeof(word));
      lanes[k] = mix(lanes[k], word, kLanePrimes[k]);
    }
  };
  const auto* in = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + kHashStep <= bytes; i += kHashStep) consume(in + i);
  if (i < bytes) {
    unsigned char tail[kHashStep] = {};
    std::memcpy(tail, in + i, bytes - i);
    consume(tail);
  }
  std::uint64_t digest = mix(kHashSeed, bytes, kLanePrimes[0]);
  for (const std::uint64_t lane : lanes) {
    digest = mix(digest, lane, kLanePrimes[0]);
  }
  return digest;
}

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
  if (!delta.dense) {
    for (std::size_t i = 0; i < delta.indices.size(); ++i) {
      if (delta.indices[i] >= delta.dim ||
          (i > 0 && delta.indices[i] <= delta.indices[i - 1])) {
        throw std::invalid_argument(
            "CompressedDelta: sparse indices must ascend strictly below dim");
      }
    }
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
  const std::uint32_t header[] = {delta.dim, delta.block,
                                  delta.dense ? 1U : 0U};
  std::uint64_t digest = kHashSeed;
  for (const std::uint64_t field :
       {hash_field(header, sizeof(header)),
        hash_field(delta.indices.data(),
                   delta.indices.size() * sizeof(std::uint32_t)),
        hash_field(delta.payload.data(),
                   delta.payload.size() * sizeof(linalg::Half)),
        hash_field(delta.scales.data(),
                   delta.scales.size() * sizeof(float))}) {
    digest = mix(digest, field, kLanePrimes[0]);
  }
  return digest;
}

void encode_delta(std::span<const double> delta,
                  const DeltaCodecConfig& config, CompressedDelta& out) {
  if (config.block == 0) {
    throw std::invalid_argument("encode_delta: block must be positive");
  }
  if (!(config.threshold >= 0.0) || !std::isfinite(config.threshold)) {
    throw std::invalid_argument(
        "encode_delta: threshold must be finite and >= 0");
  }
  out.dim = static_cast<std::uint32_t>(delta.size());
  out.block = config.block;
  out.dense = config.threshold == 0.0;
  out.indices.clear();

  // Survivor selection.  Dense layout keeps everything (the wire size must
  // stay a pure function of the dimension) and reads `delta` in place;
  // sparse layout gathers the entries above the relative threshold.
  std::span<const double> survivors = delta;
  std::vector<double> gathered;
  if (!out.dense) {
    const double cut = config.threshold * linalg::max_abs(delta);
    for (std::size_t i = 0; i < delta.size(); ++i) {
      if (std::abs(delta[i]) > cut) {
        out.indices.push_back(static_cast<std::uint32_t>(i));
        gathered.push_back(delta[i]);
      }
    }
    survivors = gathered;
  }

  // Per-block max-abs scaling keeps every stored ratio in [-1, 1]; the scale
  // is rounded to fp32 first so encode and decode agree on the exact factor.
  out.payload.resize(survivors.size());
  out.scales.resize((survivors.size() + config.block - 1) / config.block);
  const std::span<linalg::Half> payload = out.payload;
  for (std::size_t b = 0; b < out.scales.size(); ++b) {
    const std::size_t begin = b * config.block;
    const std::size_t count =
        std::min<std::size_t>(config.block, survivors.size() - begin);
    const auto block = survivors.subspan(begin, count);
    const auto scale = static_cast<float>(linalg::max_abs(block));
    out.scales[b] = scale;
    if (scale > 0.0F) {
      linalg::quantize(block, static_cast<double>(scale),
                       payload.subspan(begin, count));
    } else {
      std::fill_n(payload.begin() + begin, count, linalg::Half{});
    }
  }
  out.checksum = compressed_delta_checksum(out);
}

CompressedDelta encode_delta(std::span<const double> delta,
                             const DeltaCodecConfig& config) {
  CompressedDelta out;
  encode_delta(delta, config, out);
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
  const std::span<const linalg::Half> payload = delta.payload;
  for (std::size_t b = 0; b < delta.scales.size(); ++b) {
    const std::size_t begin = b * delta.block;
    const std::size_t count =
        std::min<std::size_t>(delta.block, payload.size() - begin);
    const auto scale = static_cast<double>(delta.scales[b]);
    if (delta.dense) {
      linalg::dequantize(payload.subspan(begin, count), scale,
                         out.subspan(begin, count));
    } else {
      for (std::size_t i = begin; i < begin + count; ++i) {
        out[delta.indices[i]] =
            static_cast<double>(linalg::half_to_float(payload[i])) * scale;
      }
    }
  }
}

std::vector<double> decode_delta(const CompressedDelta& delta) {
  std::vector<double> out(delta.dim, 0.0);
  decode_delta(delta, out);
  return out;
}

void corrupt_compressed_in_transit(CompressedDelta& delta) {
  // Flip one low payload bit — the least detectable change a transit fault
  // can make to the quantized image.  The transit hash over the encoding
  // still diverges on any single-bit flip.
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
  return hash_field(delta.data(), delta.size() * sizeof(double));
}

void corrupt_in_transit(std::span<double> delta) {
  if (delta.empty()) return;
  std::uint64_t bits = 0;
  std::memcpy(&bits, delta.data(), sizeof(bits));
  bits ^= 0x1ULL;
  std::memcpy(delta.data(), &bits, sizeof(bits));
}

}  // namespace tpa::cluster
