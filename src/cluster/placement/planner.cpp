#include "cluster/placement/planner.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>

#include "obs/metrics_registry.hpp"

namespace tpa::cluster::placement {

PlacementMode parse_placement_mode(const std::string& text) {
  if (text == "uniform") return PlacementMode::kUniform;
  if (text == "optimize") return PlacementMode::kOptimize;
  throw std::invalid_argument("unknown placement mode '" + text +
                              "' (expected uniform|optimize)");
}

const char* placement_mode_name(PlacementMode mode) {
  return mode == PlacementMode::kOptimize ? "optimize" : "uniform";
}

std::vector<Index> makespan_split(const PlacementCostModel& model) {
  const auto slots = static_cast<std::size_t>(model.num_workers());
  const Index dim = model.partition_dim();

  // Slot k's largest share whose compute fits in `makespan`; the caller
  // guarantees the share of 1 fits.
  const auto share = [&](std::size_t k, double makespan) {
    Index lo = 1;
    Index hi = dim;
    while (lo < hi) {
      const Index mid = lo + (hi - lo + 1) / 2;
      if (model.slot_seconds(k, mid) <= makespan) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  };
  const auto covers = [&](double makespan) {
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < slots && total < dim; ++k) {
      total += share(k, makespan);
    }
    return total >= dim;
  };

  // `lo` fails and `hi` covers; halve until they are adjacent doubles, so
  // `hi` is the smallest covering makespan, the optimum itself.
  double lo = 0.0;
  double hi = 0.0;
  for (std::size_t k = 0; k < slots; ++k) {
    lo = std::max(lo, model.slot_seconds(k, 1));
    hi = std::max(hi, model.slot_seconds(k, dim));
  }
  if (covers(lo)) {
    hi = lo;
  } else {
    for (;;) {
      const double mid = lo + (hi - lo) / 2.0;
      if (mid <= lo || mid >= hi) break;
      if (covers(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
  }

  std::vector<Index> sizes(slots);
  std::vector<double> seconds(slots);
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < slots; ++k) {
    sizes[k] = share(k, hi);
    seconds[k] = model.slot_seconds(k, sizes[k]);
    total += sizes[k];
  }
  // Trimming never raises a slot's time, so the makespan stays optimal.
  for (; total > dim; --total) {
    std::size_t slowest = slots;
    for (std::size_t k = 0; k < slots; ++k) {
      if (sizes[k] == 1) continue;
      if (slowest == slots || std::tie(seconds[k], sizes[k]) >=
                                  std::tie(seconds[slowest], sizes[slowest])) {
        slowest = k;
      }
    }
    --sizes[slowest];
    seconds[slowest] = model.slot_seconds(slowest, sizes[slowest]);
  }
  return sizes;
}

PlacementResult plan_placement(const PlacementCostModel& model,
                               PlacementMode mode) {
  PlacementResult result;
  result.mode = mode;
  result.uniform_sizes =
      uniform_partition_sizes(model.partition_dim(), model.num_workers());
  result.uniform_predicted = model.price(result.uniform_sizes);
  result.sizes = result.uniform_sizes;
  result.predicted = result.uniform_predicted;
  if (mode != PlacementMode::kOptimize) return result;

  // The split must never lose to the baseline: take it only when strictly
  // cheaper, which also keeps homogeneous fleets on the legacy deal.
  auto split = makespan_split(model);
  const auto priced = model.price(split);
  if (priced.total() < result.uniform_predicted.total()) {
    result.sizes = std::move(split);
    result.predicted = priced;
    result.optimized = true;
  }
  return result;
}

void record_placement_obs(const PlacementResult& result) {
  auto& metrics = obs::metrics();
  metrics.gauge("placement.predicted_round_seconds")
      .set(result.predicted.total());
  metrics.gauge("placement.uniform_round_seconds")
      .set(result.uniform_predicted.total());
  metrics.gauge("placement.predicted_speedup")
      .set(result.predicted_speedup());
  metrics.gauge("placement.optimized").set(result.optimized ? 1.0 : 0.0);
}

}  // namespace tpa::cluster::placement
