// Seeded simulated-annealing search over partition sizes (DESIGN.md §14).
//
// State = one partition size per worker slot (each >= 1, summing to the
// partitioned dimension); the coordinate-block→worker assignment follows
// from the sizes through Partition::random_weighted's seeded deal, so the
// search space is exactly the sizes.  The chain starts from the uniform
// split (the always-reported baseline), proposes moving a block of
// coordinates from one worker to another, accepts by the Metropolis rule
// under a geometric cooling schedule, and returns the best state ever
// visited — but only when it is strictly cheaper than uniform, so
// `optimize` can never do worse than the status quo.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/placement/cost_model.hpp"

namespace tpa::cluster::placement {

enum class PlacementMode { kUniform, kOptimize };

/// Parses "uniform" | "optimize"; throws std::invalid_argument otherwise.
PlacementMode parse_placement_mode(const std::string& text);
const char* placement_mode_name(PlacementMode mode);

struct AnnealConfig {
  int iterations = 600;
  /// Initial temperature as a fraction of the uniform round cost; the
  /// schedule cools geometrically to `final_fraction` of that.
  double initial_fraction = 0.25;
  double final_fraction = 1e-4;
  std::uint64_t seed = 7;
};

/// One accepted-or-rejected SA step, for the exported trajectory.
struct TrajectoryPoint {
  int iteration = 0;
  double candidate_seconds = 0.0;
  double current_seconds = 0.0;
  double best_seconds = 0.0;
  bool accepted = false;
};

struct PlacementResult {
  PlacementMode mode = PlacementMode::kUniform;
  std::uint64_t seed = 0;
  /// The chosen partition sizes (== uniform_sizes unless the annealer found
  /// a strictly cheaper placement).
  std::vector<Index> sizes;
  std::vector<Index> uniform_sizes;
  obs::RoundAttribution predicted;          // for `sizes`
  obs::RoundAttribution uniform_predicted;  // the baseline, always reported
  /// True iff sizes != uniform_sizes (the annealer won).
  bool optimized = false;
  int sa_iterations = 0;
  int sa_accepted = 0;
  std::vector<TrajectoryPoint> trajectory;

  double predicted_speedup() const noexcept {
    const double mine = predicted.total();
    return mine > 0.0 ? uniform_predicted.total() / mine : 1.0;
  }
};

/// Runs the annealer against `model`'s objective.  Deterministic in
/// (model, config): the proposal stream comes from a util::Rng seeded with
/// config.seed only.
PlacementResult optimize_placement(const PlacementCostModel& model,
                                   const AnnealConfig& config);

/// Entry point the drivers use: uniform mode skips the search and returns
/// the baseline as the choice; optimize mode runs the annealer.
PlacementResult plan_placement(const PlacementCostModel& model,
                               PlacementMode mode,
                               const AnnealConfig& config);

/// Records the planning outcome on the obs layer: placement.* gauges
/// (predicted/uniform round seconds, speedup, accepted moves) and one trace
/// instant per trajectory point on the master track, so --metrics-out /
/// --trace-out runs carry the SA trajectory.
void record_placement_obs(const PlacementResult& result);

}  // namespace tpa::cluster::placement
