#include "cluster/placement/cost_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "gpusim/device.hpp"

namespace tpa::cluster::placement {

std::vector<Index> uniform_partition_sizes(Index num_coordinates,
                                           int workers) {
  if (workers <= 0) {
    throw std::invalid_argument(
        "uniform_partition_sizes: workers must be positive");
  }
  std::vector<Index> sizes(static_cast<std::size_t>(workers));
  const auto k = static_cast<Index>(workers);
  const Index base = num_coordinates / k;
  const Index remainder = num_coordinates % k;
  for (Index i = 0; i < k; ++i) {
    sizes[i] = base + (i < remainder ? 1 : 0);
  }
  return sizes;
}

double overlapped_reduce_seconds(std::vector<double> arrivals,
                                 std::size_t bytes,
                                 const NetworkModel& net) {
  if (arrivals.empty()) return 0.0;
  std::sort(arrivals.begin(), arrivals.end());
  const double last = arrivals.back();
  if (arrivals.size() <= 1) return last;

  // Option A: wait for the last delta, then run the binomial tree.
  const double tree_done =
      last + net.reduce_seconds(bytes, static_cast<int>(arrivals.size()));

  // Option B: stream deltas into the master as they land — each ingest is a
  // point-to-point transfer, serialized on the master's link, overlapping
  // with the still-computing workers.
  double busy = 0.0;
  for (const double arrival : arrivals) {
    busy = std::max(busy, arrival) + net.point_to_point_seconds(bytes);
  }
  return std::min(tree_done, busy);
}

PlacementCostModel::PlacementCostModel(FleetSpec fleet, Index partition_dim,
                                       core::TimingWorkload global,
                                       NetworkModel network,
                                       CostOptions options)
    : fleet_(std::move(fleet)),
      partition_dim_(partition_dim),
      global_(global),
      network_(network),
      options_(options) {
  if (fleet_.empty()) {
    throw std::invalid_argument("PlacementCostModel: empty fleet");
  }
  if (partition_dim_ < static_cast<Index>(fleet_.size())) {
    throw std::invalid_argument(
        "PlacementCostModel: partition_dim must cover every worker");
  }
  if (options_.local_passes < 1) {
    throw std::invalid_argument(
        "PlacementCostModel: local_passes must be >= 1");
  }
  network_.validate();
  has_gpu_ = fleet_has_gpu(fleet_);
}

core::TimingWorkload PlacementCostModel::worker_workload(Index size) const
    noexcept {
  // Mirror inherit_paper_scale: the partitioned dimension and nnz shrink by
  // the worker's fraction of the actual partitionable dimension; the shared
  // vector stays global.
  core::TimingWorkload w = global_;
  const double fraction =
      static_cast<double>(size) / static_cast<double>(partition_dim_);
  w.nnz = static_cast<std::uint64_t>(static_cast<double>(global_.nnz) *
                                     fraction);
  w.num_coordinates = static_cast<std::uint64_t>(
      static_cast<double>(global_.num_coordinates) * fraction);
  return w;
}

double PlacementCostModel::slot_seconds(std::size_t k, Index size) const {
  return static_cast<double>(options_.local_passes) *
         fleet_.at(k).epoch_seconds(worker_workload(size));
}

std::vector<double> PlacementCostModel::worker_compute_seconds(
    std::span<const Index> sizes) const {
  if (sizes.size() != fleet_.size()) {
    throw std::invalid_argument(
        "PlacementCostModel: sizes/fleet length mismatch");
  }
  std::vector<double> seconds(sizes.size(), 0.0);
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    seconds[k] = slot_seconds(k, sizes[k]);
  }
  return seconds;
}

obs::RoundAttribution PlacementCostModel::price(
    std::span<const Index> sizes) const {
  const auto compute = worker_compute_seconds(sizes);
  const int workers = num_workers();
  const std::size_t shared_bytes =
      static_cast<std::size_t>(global_.shared_dim) * sizeof(float);

  obs::RoundAttribution prediction;
  prediction.compute_seconds =
      *std::max_element(compute.begin(), compute.end());

  // Host arithmetic mirrors the round engine: delta formation and γ-rescale
  // are 3 passes over the shared vector plus 3 passes over the largest local
  // weight vector (workers run in parallel; the slowest gates the round).
  const Index max_size = *std::max_element(sizes.begin(), sizes.end());
  const double max_coords =
      static_cast<double>(worker_workload(max_size).num_coordinates);
  prediction.host_seconds =
      options_.seconds_per_vector_element *
      (3.0 * static_cast<double>(global_.shared_dim) + 3.0 * max_coords);

  if (has_gpu_) {
    gpusim::PcieLink pcie;
    prediction.pcie_seconds =
        2.0 * pcie.transfer_seconds(shared_bytes, /*pinned=*/true);
  }

  const std::size_t delta_bytes =
      options_.delta_wire_bytes > 0 ? options_.delta_wire_bytes
                                    : shared_bytes;
  const double tree_reduce = network_.reduce_seconds(delta_bytes, workers);
  const double broadcast = network_.broadcast_seconds(shared_bytes, workers);
  if (options_.comm_overlap && workers > 1) {
    const double reduce_done =
        overlapped_reduce_seconds(compute, delta_bytes, network_);
    const double exposed =
        std::max(0.0, reduce_done - prediction.compute_seconds);
    prediction.network_seconds = exposed + broadcast;
  } else {
    prediction.network_seconds = tree_reduce + broadcast;
  }
  return prediction;
}

}  // namespace tpa::cluster::placement
