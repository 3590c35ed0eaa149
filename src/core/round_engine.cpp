#include "core/round_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "linalg/vector_ops.hpp"

namespace tpa::core {

AsyncEngine::AsyncEngine(std::size_t window, CommitPolicy policy)
    : window_(window), policy_(policy) {
  if (window == 0) {
    throw std::invalid_argument("AsyncEngine: window must be positive");
  }
  ring_.resize(window);
}

void AsyncEngine::commit(const PendingUpdate& update, const VectorFn& vec_of,
                         std::span<float> shared,
                         AsyncEngineStats& stats) const {
  const auto vec = vec_of(update.coord);
  if (policy_ == CommitPolicy::kAtomicAdd) {
    linalg::sparse_axpy(update.delta, vec, shared);
    stats.committed_entries += vec.nnz();
    return;
  }
  // Non-atomic read-modify-write: the store is `value read at compute time
  // plus this update's contribution`, so any add that landed on the entry
  // since the read is silently erased.
  for (std::size_t k = 0; k < vec.nnz(); ++k) {
    const auto i = vec.indices[k];
    const float stored = static_cast<float>(
        update.snapshot[k] + update.delta * vec.values[k]);
    if (shared[i] != update.snapshot[k]) {
      ++stats.lost_entries;  // a racing lane's add gets overwritten
    } else {
      ++stats.committed_entries;
    }
    shared[i] = stored;
  }
}

AsyncEngineStats AsyncEngine::run_epoch(std::span<const std::uint32_t> order,
                                        const ComputeFn& compute,
                                        const VectorFn& vec_of,
                                        const WeightFn& apply_weight,
                                        std::span<float> shared) {
  if (policy_ == CommitPolicy::kReplicated) {
    throw std::logic_error(
        "AsyncEngine::run_epoch: kReplicated runs on replicated_sweep");
  }
  AsyncEngineStats stats;
  const bool need_snapshot = policy_ == CommitPolicy::kLastWriterWins;

  for (std::size_t p = 0; p < order.size(); ++p) {
    // Retire the update that has been in flight for `window` steps; its
    // write lands now, so the current read (below) does not see it — that
    // is the staleness of `window` concurrently-resident lanes.
    const std::size_t slot = p % window_;
    if (p >= window_) {
      commit(ring_[slot], vec_of, shared, stats);
    }

    const auto j = order[p];
    const double delta = compute(j, shared);
    apply_weight(j, delta);  // weights are private to their coordinate
    ++stats.updates;

    auto& pending = ring_[slot];
    pending.coord = j;
    pending.delta = delta;
    if (need_snapshot) {
      const auto vec = vec_of(j);
      pending.snapshot.resize(vec.nnz());
      for (std::size_t k = 0; k < vec.nnz(); ++k) {
        pending.snapshot[k] = shared[vec.indices[k]];
      }
    }
  }

  // Drain: all still-in-flight updates land at epoch end (the device
  // finishes its grid before the host proceeds).
  const std::size_t in_flight = std::min(window_, order.size());
  for (std::size_t q = 0; q < in_flight; ++q) {
    const std::size_t p = order.size() - in_flight + q;
    commit(ring_[p % window_], vec_of, shared, stats);
  }
  return stats;
}

}  // namespace tpa::core
