#include "core/round_engine.hpp"

#include <stdexcept>
#include <type_traits>

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
        "AsyncEngine::run_epoch: kReplicated requires run_epoch_replicated");
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

template <typename T>
AsyncEngineStats AsyncEngine::run_replicated(
    std::span<const std::uint32_t> order, const ComputeOn<T>& compute,
    const VectorFn& vec_of, const WeightFn& apply_weight,
    std::span<float> shared, ReplicaSet& replicas, int merge_every,
    double damping) {
  if (merge_every <= 0) {
    throw std::invalid_argument(
        "AsyncEngine::run_epoch_replicated: merge_every must be positive");
  }
  if (!(damping > 0.0) || damping > 1.0) {
    throw std::invalid_argument(
        "AsyncEngine::run_epoch_replicated: damping must be in (0, 1]");
  }
  AsyncEngineStats stats;
  replicas.configure(shared.size(), static_cast<int>(window_),
                     std::is_same_v<T, float> ? linalg::SharedPrecision::kFp32
                                              : linalg::SharedPrecision::kFp16);
  // Reseed every epoch: callers (the distributed solver in particular) may
  // overwrite `shared` between epochs.
  replicas.reset_from(shared);

  // One merge interval = merge_every updates per lane.
  const std::uint64_t interval =
      static_cast<std::uint64_t>(window_) *
      static_cast<std::uint64_t>(merge_every);
  std::uint64_t since_merge = 0;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const int lane = static_cast<int>(p % window_);
    auto rep = replicas.replica<T>(lane);
    const auto j = order[p];
    // The lane reads its own replica: the last merge plus its own updates
    // since — other lanes' post-merge updates are invisible until the next
    // merge (staleness bounded by the interval).
    // Under-relax the exact coordinate step by θ (1.0 within the safe
    // staleness budget): weight and shared contributions scale together, so
    // the w = A^T·α invariant is preserved at any damping.
    const double step = damping * compute(j, rep);
    apply_weight(j, step);
    const auto vec = vec_of(j);
    // Plain in-order stores into private storage; nothing races, nothing is
    // lost, and the result is independent of any physical schedule.
    linalg::sparse_axpy(step, vec, rep);
    ++stats.updates;
    stats.committed_entries += vec.nnz();
    if (++since_merge >= interval) {
      replicas.merge_into(shared);
      since_merge = 0;
    }
  }
  if (since_merge > 0) replicas.merge_into(shared);
  return stats;
}

template AsyncEngineStats AsyncEngine::run_replicated(
    std::span<const std::uint32_t>, const ComputeOn<float>&, const VectorFn&,
    const WeightFn&, std::span<float>, ReplicaSet&, int, double);
template AsyncEngineStats AsyncEngine::run_replicated(
    std::span<const std::uint32_t>, const ComputeOn<linalg::Half>&,
    const VectorFn&, const WeightFn&, std::span<float>, ReplicaSet&, int,
    double);

}  // namespace tpa::core
