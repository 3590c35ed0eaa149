// Partition sizes for a heterogeneous fleet (DESIGN.md §14).
//
// A placement is one partition size per worker slot (each >= 1, summing to
// the partitioned dimension); the coordinate-block→worker assignment follows
// from the sizes through Partition::random_weighted's seeded deal, so the
// sizes are the whole decision.  A barrier round waits for its slowest
// worker and a slot's compute only grows with its share, so the sizes that
// minimise the compute makespan are computed, not searched: the smallest
// makespan T whose per-slot shares cover the dimension, found by bisection.
// The split replaces the uniform deal only when its priced round is strictly
// cheaper, so `optimize` can never do worse than the status quo.
#pragma once

#include <string>
#include <vector>

#include "cluster/placement/cost_model.hpp"

namespace tpa::cluster::placement {

enum class PlacementMode { kUniform, kOptimize };

/// Parses "uniform" | "optimize"; throws std::invalid_argument otherwise.
PlacementMode parse_placement_mode(const std::string& text);
const char* placement_mode_name(PlacementMode mode);

struct PlacementResult {
  PlacementMode mode = PlacementMode::kUniform;
  /// The chosen partition sizes (== uniform_sizes unless the split prices
  /// a strictly cheaper round).
  std::vector<Index> sizes;
  std::vector<Index> uniform_sizes;
  obs::RoundAttribution predicted;          // for `sizes`
  obs::RoundAttribution uniform_predicted;  // the baseline, always reported
  /// True iff sizes != uniform_sizes (the split won).
  bool optimized = false;

  double predicted_speedup() const noexcept {
    const double mine = predicted.total();
    return mine > 0.0 ? uniform_predicted.total() / mine : 1.0;
  }
};

/// The sizes with the minimum compute makespan max_k t_k(s_k), where
/// t_k(s) = model.slot_seconds(k, s).  Bisection finds the smallest T at
/// which the largest shares s_k >= 1 with t_k(s_k) <= T cover
/// partition_dim; the excess is then trimmed one coordinate at a time from
/// the slowest slot (ties: the larger share, then the later slot), so a
/// homogeneous fleet gets exactly uniform_partition_sizes.  Exact because
/// every t_k is non-decreasing in s.
std::vector<Index> makespan_split(const PlacementCostModel& model);

/// Entry point the drivers use: uniform mode returns the baseline as the
/// choice; optimize mode takes makespan_split when model.price() rates it
/// strictly cheaper than the uniform split.
PlacementResult plan_placement(const PlacementCostModel& model,
                               PlacementMode mode);

/// Records the planning outcome on the obs layer as placement.* gauges
/// (predicted/uniform round seconds, speed-up, whether the split won).
void record_placement_obs(const PlacementResult& result);

}  // namespace tpa::cluster::placement
