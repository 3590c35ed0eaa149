// Single-bit flip sweeps over the delta codec's frame, shared by the codec
// tests (test_half) and the framed-format corruption test.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cluster/delta_codec.hpp"

namespace tpa::cluster {

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

/// Misses of the transit hash over every bit of every field of `frame`.
inline std::size_t missed_frame_flips(CompressedDelta frame) {
  const std::uint64_t sent = frame.checksum;
  const auto caught = [&] { return compressed_delta_checksum(frame) != sent; };
  return missed_flips(&frame.dim, sizeof(frame.dim), caught) +
         missed_flips(frame.payload.data(),
                      frame.payload.size() * sizeof(linalg::Half), caught) +
         missed_flips(frame.scales.data(), frame.scales.size() * sizeof(float),
                      caught);
}

}  // namespace tpa::cluster
