#include "cluster/network_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace tpa::cluster {

void NetworkModel::validate() const {
  if (!(bandwidth_gbps > 0.0)) {
    throw std::invalid_argument(
        "NetworkModel '" + name + "': bandwidth must be positive, got " +
        std::to_string(bandwidth_gbps) + " GB/s");
  }
  if (latency_s < 0.0) {
    throw std::invalid_argument(
        "NetworkModel '" + name + "': latency must be non-negative, got " +
        std::to_string(latency_s) + " s");
  }
}

NetworkModel NetworkModel::ethernet_10g() {
  return NetworkModel{"10GbE", 50e-6, 1.05};
}

NetworkModel NetworkModel::ethernet_100g() {
  return NetworkModel{"100GbE", 30e-6, 10.5};
}

NetworkModel NetworkModel::pcie_peer() {
  return NetworkModel{"PCIe gen3 x16", 10e-6, 11.0};
}

NetworkModel NetworkModel::preset(const std::string& name) {
  if (name == "10gbe") return ethernet_10g();
  if (name == "100gbe") return ethernet_100g();
  if (name == "pcie") return pcie_peer();
  throw std::invalid_argument("unknown network preset '" + name +
                              "' (10gbe | 100gbe | pcie)");
}

double NetworkModel::point_to_point_seconds(std::size_t bytes) const
    noexcept {
  return latency_s + static_cast<double>(bytes) / (bandwidth_gbps * 1e9);
}

double NetworkModel::reduce_seconds(std::size_t bytes, int workers) const
    noexcept {
  if (workers <= 1) return 0.0;
  // Pipelined binomial tree (Open MPI's large-message algorithms): latency
  // grows with tree depth, bandwidth cost is paid once.
  const double levels = std::ceil(std::log2(static_cast<double>(workers)));
  return levels * latency_s +
         static_cast<double>(bytes) / (bandwidth_gbps * 1e9);
}

double NetworkModel::broadcast_seconds(std::size_t bytes, int workers) const
    noexcept {
  return reduce_seconds(bytes, workers);  // same binomial-tree shape
}

}  // namespace tpa::cluster
