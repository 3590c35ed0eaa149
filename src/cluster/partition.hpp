// Data partitioning for distributed SCD (paper Section IV.A).
//
// The training matrix is distributed either by feature (columns; primal
// form) or by example (rows; dual form).  A Partition assigns every global
// coordinate to exactly one worker; shard builders then materialise each
// worker's local matrix.  A shard keeps the *full* complementary dimension
// (a feature shard holds all N rows; an example shard keeps global column
// ids), because the shared vector is global.  Both builders copy slices
// into a CSR: an example shard packs its rows of A, a feature shard packs
// its columns as rows of Aᵀ and transposes them back, so each keeps every
// stored entry of the global matrix, explicit zeros included.
//
// Shards inherit a proportionally scaled PaperScale so that the timing
// models charge each worker 1/K of the full-size dataset's work.
#pragma once

#include <span>
#include <vector>

#include "core/formulation.hpp"
#include "data/dataset.hpp"
#include "util/rng.hpp"

namespace tpa::cluster {

using data::Index;

struct Partition {
  /// owned[k] = sorted global coordinate ids assigned to worker k.
  std::vector<std::vector<Index>> owned;

  int num_workers() const noexcept { return static_cast<int>(owned.size()); }

  /// Uniformly random assignment ("randomly distribute the rows", Sect. V.B).
  static Partition random(Index num_coordinates, int workers, util::Rng& rng);

  /// Random assignment with prescribed per-worker sizes (the placement
  /// optimizer's non-uniform splits).  Draws the same single permutation as
  /// random() and deals it round-robin, skipping workers that have reached
  /// their quota — so when `sizes` equals the uniform split this reproduces
  /// random() bit-for-bit (round-robin never overflows a uniform quota).
  /// Requires every size >= 1 (workers must own coordinates) and
  /// sum(sizes) == num_coordinates; throws std::invalid_argument otherwise.
  static Partition random_weighted(Index num_coordinates,
                                   std::span<const Index> sizes,
                                   util::Rng& rng);

  /// Contiguous ranges with prescribed sizes (deterministic; tests and
  /// non-uniform fixtures).  Same size validation as random_weighted.
  static Partition contiguous_sizes(Index num_coordinates,
                                    std::span<const Index> sizes);

  /// Contiguous equal-size ranges (deterministic; used in tests).
  static Partition contiguous(Index num_coordinates, int workers);

  /// Per-worker owned counts, in worker order.
  std::vector<Index> sizes() const;

  /// True iff every coordinate in [0, n) appears exactly once.
  bool covers(Index num_coordinates) const;
};

/// Worker k's local matrix for the primal form: all rows, columns `cols`
/// re-indexed to local ids 0..|cols|-1.  Labels are replicated (every worker
/// needs y for the residual).
data::Dataset make_feature_shard(const data::Dataset& global,
                                 std::span<const Index> cols);

/// Worker k's local matrix for the dual form: rows `rows`, full column
/// space.  Labels are the local examples' labels.
data::Dataset make_example_shard(const data::Dataset& global,
                                 std::span<const Index> rows);

/// Builds the shard appropriate for `f` from the partition's k-th piece.
data::Dataset make_shard(const data::Dataset& global, core::Formulation f,
                         std::span<const Index> coordinates);

}  // namespace tpa::cluster
