// Unified round-pricing model for heterogeneous placements (DESIGN.md §14).
//
// A placement is a vector of partition sizes, one per worker slot.  The cost
// model prices one synchronous round of the distributed solver under that
// placement using exactly the formulas the simulated round engine charges:
// per-device local-epoch times (CpuCostModel / GpuTimingModel via
// DeviceSpec::epoch_seconds), host vector arithmetic, PCIe staging when any
// slot is a GPU, and NetworkModel tree reduce/broadcast — optionally with
// the comm/compute-overlap pricing, where the master ingests each worker's
// delta as it arrives instead of waiting for the slowest worker before
// starting the reduce.  Because the price matches the engine, the planner
// compares placements by the real simulated round time, and `tpascd_train`
// can report predicted vs. simulated side by side.
#pragma once

#include <span>
#include <vector>

#include "cluster/network_model.hpp"
#include "cluster/placement/fleet.hpp"
#include "core/cost_model.hpp"
#include "data/dataset.hpp"
#include "obs/attribution.hpp"

namespace tpa::cluster::placement {

using data::Index;

/// The partition sizes Partition::random's round-robin deal produces:
/// sizes[k] = |{i < n : i mod K == k}| (first n mod K workers get the ceil).
std::vector<Index> uniform_partition_sizes(Index num_coordinates,
                                           int workers);

/// Master finish time for ingesting all worker deltas when the reduce
/// overlaps compute: `arrivals[k]` is the simulated time worker k's delta
/// hits the wire.  The result is min(tree reduce after the last arrival,
/// serialized point-to-point ingest folded over the sorted arrivals) — the
/// master can either wait and run the binomial tree, or stream deltas in as
/// they land; the event model takes whichever finishes first.  Returns the
/// last arrival unchanged for K <= 1 (nothing to reduce).
double overlapped_reduce_seconds(std::vector<double> arrivals,
                                 std::size_t bytes, const NetworkModel& net);

struct CostOptions {
  int local_passes = 1;       // DistConfig::local_epochs_per_round
  bool comm_overlap = false;  // price the overlapped reduce
  /// Host-side vector arithmetic cost (SolverConfig::cpu_cost's figure).
  double seconds_per_vector_element = 1.0e-9;
  /// Reduce-leg payload bytes per worker delta; 0 prices the legacy dense
  /// fp32 shared vector.  The drivers set the deterministic dense-quantized
  /// wire size (cluster/delta_codec.hpp) when compressed delta exchange is
  /// on, so predictions track compressed rounds and the drift audit stays
  /// exact.  The broadcast leg is always the dense model.
  std::size_t delta_wire_bytes = 0;
};

class PlacementCostModel {
 public:
  /// `partition_dim` is the actual partitionable dimension — candidate size
  /// vectors tile it, so the planned sizes feed Partition::random_weighted
  /// directly.  `global` is the full dataset's (possibly paper-scale)
  /// timing workload; per-worker workloads are scaled by each slot's
  /// fraction of `partition_dim`, mirroring inherit_paper_scale on the real
  /// shards.
  PlacementCostModel(FleetSpec fleet, Index partition_dim,
                     core::TimingWorkload global, NetworkModel network,
                     CostOptions options);

  int num_workers() const noexcept {
    return static_cast<int>(fleet_.size());
  }
  Index partition_dim() const noexcept { return partition_dim_; }
  const FleetSpec& fleet() const noexcept { return fleet_; }
  const core::TimingWorkload& workload() const noexcept { return global_; }
  const CostOptions& options() const noexcept { return options_; }

  /// Worker k's workload when it owns `size` of the partitioned dimension.
  core::TimingWorkload worker_workload(Index size) const noexcept;

  /// Slot k's local compute (local_passes epochs) when it owns `size`;
  /// non-decreasing in `size`.
  double slot_seconds(std::size_t k, Index size) const;

  /// Per-worker local compute times (local_passes epochs each) for the
  /// candidate sizes.  sizes.size() must equal the fleet size.
  std::vector<double> worker_compute_seconds(
      std::span<const Index> sizes) const;

  /// Full round price for the candidate sizes, in the same terms the
  /// drivers attribute a simulated round: compute is the slowest worker's
  /// local passes, network the exposed (post-overlap) reduce + broadcast.
  /// A fault-free round has no straggler wait or stale overhead, so those
  /// stay zero and total() is compute + host + pcie + network exactly.
  obs::RoundAttribution price(std::span<const Index> sizes) const;

 private:
  FleetSpec fleet_;
  Index partition_dim_ = 0;
  core::TimingWorkload global_;
  NetworkModel network_;
  CostOptions options_;
  bool has_gpu_ = false;
};

}  // namespace tpa::cluster::placement
