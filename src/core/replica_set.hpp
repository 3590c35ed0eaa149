// Per-thread replicas of the shared vector (SySCD-style).
//
// The atomic write-back in the threaded/async solvers serialises the hot
// loop on the shared vector's cache lines: every fetch_add bounces the line
// between cores.  ReplicaSet removes that contention by giving each worker
// a private, cache-line-aligned copy of the shared vector — the inner loop
// reads and writes its own replica with plain loads/stores, exactly like the
// sequential solver — and folding the replicas' deltas back into the global
// vector at a configurable interval (the merge).  Staleness is bounded by
// the merge interval; DESIGN.md §11 documents the model.
//
// Layout: one backing AlignedVector holds [base | replica 0 | ... |
// replica n-1], each slot starting on a fresh 64-byte line (stride rounded
// up to 16 floats), so no two replicas — and no replica and the base — ever
// share a cache line (false sharing would reintroduce the very contention
// replication removes).
//
// Merge semantics (deterministic): for each replica r in index order,
//   w[i] = float(w[i] + (double(r[i]) − double(base[i])))     (linalg::add_diff)
// then base and every replica are reseeded from the merged w (memcpy).
// Because each coordinate's delta is folded in double and replicas own
// disjoint coordinate slices between merges, a single-replica merge is
// special-cased to a verbatim copy — float w + (r − w) is not exactly r in
// general, and the copy makes the merge_every=1 single-thread path bit-exact
// against the sequential solver.
//
// Storage is float or linalg::Half (fp16, DESIGN.md §16) behind one set of
// bodies; reset and merge differ only in the element conversion.
#pragma once

#include <cstddef>
#include <span>
#include <variant>

#include "linalg/half.hpp"
#include "util/aligned.hpp"

namespace tpa::core {

class ReplicaSet {
 public:
  ReplicaSet() = default;

  /// Allocates `count` replicas of a `dim`-entry vector plus the base
  /// snapshot slot, stored at `precision` (fp32 by default; fp16 halves the
  /// bytes every replica sweep touches, DESIGN.md §16).  Idempotent for an
  /// unchanged (dim, count, precision); reallocation otherwise.  Contents
  /// are unspecified until reset_from().
  void configure(std::size_t dim, int count,
                 linalg::SharedPrecision precision =
                     linalg::SharedPrecision::kFp32);

  int count() const noexcept { return count_; }
  std::size_t dim() const noexcept { return dim_; }
  /// Elements between consecutive slots — dim rounded up to a full cache
  /// line of the storage type.
  std::size_t stride() const noexcept { return stride_; }
  linalg::SharedPrecision precision() const noexcept {
    return std::holds_alternative<Slots<float>>(storage_)
               ? linalg::SharedPrecision::kFp32
               : linalg::SharedPrecision::kFp16;
  }

  /// Worker r's private copy of the shared vector, as the configured
  /// storage type T: float under kFp32, linalg::Half under kFp16.
  template <typename T = float>
  std::span<T> replica(int r) {
    auto& slots = std::get<Slots<T>>(storage_);
    return {slots.data() + stride_ * static_cast<std::size_t>(r + 1), dim_};
  }
  /// Snapshot of the global vector at the last merge/reseed.
  template <typename T = float>
  std::span<const T> base() const {
    return {std::get<Slots<T>>(storage_).data(), dim_};
  }

  /// Reseeds base and every replica from `global` (global.size() == dim):
  /// the global is stored once into the base slot (under fp16, narrowed
  /// with RNE) and that image is copied into every replica.
  void reset_from(std::span<const float> global);

  /// Folds every replica's delta against base into `global` in replica
  /// order, then reseeds base and replicas from the merged result.  Records
  /// a "replica/merge" trace span and bumps the solver.merges counter.
  void merge_into(std::span<float> global);

 private:
  template <typename T>
  using Slots = util::AlignedVector<T>;  // [base | replica 0 | replica 1 | ...]

  std::variant<Slots<float>, Slots<linalg::Half>> storage_;
  std::size_t dim_ = 0;
  std::size_t stride_ = 0;
  int count_ = 0;
};

}  // namespace tpa::core
