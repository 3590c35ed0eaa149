#include "core/replica_set.hpp"

#include <cassert>
#include <cstring>
#include <type_traits>

#include "linalg/vector_ops.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace tpa::core {
namespace {

// Slots start on fresh 64-byte lines in both storage widths: 16 floats or
// 32 halves per line.
template <typename T>
std::size_t padded_stride(std::size_t dim) {
  constexpr std::size_t per_line = util::kCacheLineBytes / sizeof(T);
  return (dim + per_line - 1) / per_line * per_line;
}

}  // namespace

void ReplicaSet::configure(std::size_t dim, int count,
                           linalg::SharedPrecision precision) {
  assert(count >= 1);
  if (dim == dim_ && count == count_ && precision == this->precision()) {
    return;
  }
  dim_ = dim;
  count_ = count;
  const auto slots = static_cast<std::size_t>(count + 1);
  // Zero-fill the pad tail once; merges only ever touch [0, dim) per slot.
  if (precision == linalg::SharedPrecision::kFp16) {
    stride_ = padded_stride<linalg::Half>(dim);
    storage_.emplace<Slots<linalg::Half>>(stride_ * slots);
  } else {
    stride_ = padded_stride<float>(dim);
    storage_.emplace<Slots<float>>(stride_ * slots);
  }
}

void ReplicaSet::reset_from(std::span<const float> global) {
  assert(global.size() == dim_);
  std::visit(
      [&](auto& slots) {
        using T = typename std::decay_t<decltype(slots)>::value_type;
        // Store once into the base slot — a copy, or one RNE narrowing
        // under fp16 — then replicate that image: every slot starts from
        // identical bits.
        if constexpr (std::is_same_v<T, float>) {
          std::memcpy(slots.data(), global.data(), global.size_bytes());
        } else {
          linalg::narrow(global, {slots.data(), dim_});
        }
        for (int r = 0; r < count_; ++r) {
          std::memcpy(replica<T>(r).data(), slots.data(), dim_ * sizeof(T));
        }
      },
      storage_);
}

void ReplicaSet::merge_into(std::span<float> global) {
  assert(global.size() == dim_);
  obs::TraceSpan span("replica/merge");
  static obs::Counter& merges = obs::metrics().counter("solver.merges");
  merges.add(1);
  std::visit(
      [&](auto& slots) {
        using T = typename std::decay_t<decltype(slots)>::value_type;
        if (count_ > 1) {
          for (int r = 0; r < count_; ++r) {
            linalg::add_diff(global, replica<T>(r), base<T>());
          }
        } else if constexpr (std::is_same_v<T, float>) {
          // One replica owns every coordinate: the merged vector *is* the
          // replica.  Copying it verbatim (rather than folding w + (r − w),
          // which is not exactly r in float) keeps the merge_every=1
          // single-thread path bit-exact against the sequential solver.
          std::memcpy(global.data(), replica<T>(0).data(), global.size_bytes());
        } else {
          // The same under fp16: the replica's half image, widened exactly.
          linalg::widen(replica<T>(0), global);
        }
      },
      storage_);
  reset_from(global);
}

}  // namespace tpa::core
