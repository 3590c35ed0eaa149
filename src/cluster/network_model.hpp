// Interconnect timing models for the simulated cluster.
//
// The paper's distributed experiments run on (a) four Xeon machines with up
// to two workers each over 10 Gbit ethernet (Figs. 3-6, 8a, 9) and (b) four
// Titan X GPUs in one machine communicating over PCIe (Fig. 8b, 10).  The
// per-epoch communication is one Reduce of the shared-vector deltas to the
// master plus one Broadcast of the new shared vector (Open MPI in the
// paper); both are modelled as binomial trees:
//   time = ceil(log2 K) * (latency + bytes / effective_bandwidth).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace tpa::cluster {

struct NetworkModel {
  std::string name;
  double latency_s = 0.0;
  double bandwidth_gbps = 0.0;  // effective GB/s per link

  /// 10 Gbit ethernet: ~1.05 GB/s effective, 50 µs latency.
  static NetworkModel ethernet_10g();
  /// 100 Gbit ethernet (the paper's suggested upgrade, Section V.A).
  static NetworkModel ethernet_100g();
  /// PCIe gen3 x16 peer-to-peer within one machine.
  static NetworkModel pcie_peer();
  /// The preset named "10gbe" | "100gbe" | "pcie" (the --network token);
  /// throws std::invalid_argument on any other name.
  static NetworkModel preset(const std::string& name);

  /// Rejects physically meaningless parameters: bandwidth must be positive
  /// (the timing formulas divide by it) and latency non-negative.  Throws
  /// std::invalid_argument.  Call sites that accept user-configured models
  /// (the cluster drivers, the placement cost model) validate up front so a
  /// bad model fails loudly instead of producing inf/negative round times.
  void validate() const;

  double point_to_point_seconds(std::size_t bytes) const noexcept;

  /// Tree Reduce of `bytes` from K workers to the master; 0 for K <= 1.
  double reduce_seconds(std::size_t bytes, int workers) const noexcept;

  /// Tree Broadcast of `bytes` from the master to K workers; 0 for K <= 1.
  double broadcast_seconds(std::size_t bytes, int workers) const noexcept;
};

}  // namespace tpa::cluster
