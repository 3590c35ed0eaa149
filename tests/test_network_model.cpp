#include "cluster/network_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace tpa::cluster {
namespace {

TEST(NetworkModel, SingleWorkerHasNoCollectiveCost) {
  const auto net = NetworkModel::ethernet_10g();
  EXPECT_EQ(net.reduce_seconds(1 << 20, 1), 0.0);
  EXPECT_EQ(net.broadcast_seconds(1 << 20, 1), 0.0);
}

TEST(NetworkModel, CostGrowsWithBytes) {
  const auto net = NetworkModel::ethernet_10g();
  EXPECT_LT(net.reduce_seconds(1 << 10, 4), net.reduce_seconds(1 << 20, 4));
  EXPECT_LT(net.point_to_point_seconds(100),
            net.point_to_point_seconds(1 << 20));
}

TEST(NetworkModel, LatencyGrowsLogarithmicallyWithWorkers) {
  const auto net = NetworkModel::ethernet_10g();
  // Pipelined tree: K=2 -> 1 level, K=8 -> 3 levels; bandwidth term fixed.
  const double t2 = net.reduce_seconds(0, 2);
  const double t8 = net.reduce_seconds(0, 8);
  EXPECT_NEAR(t8, 3.0 * t2, 1e-12);
  // Non-power-of-two rounds up.
  EXPECT_NEAR(net.reduce_seconds(0, 5), 3.0 * t2, 1e-12);
}

TEST(NetworkModel, BandwidthTermPaidOncePerCollective) {
  const auto net = NetworkModel::ethernet_10g();
  const std::size_t bytes = 1 << 20;
  const double transfer = static_cast<double>(bytes) /
                          (net.bandwidth_gbps * 1e9);
  EXPECT_NEAR(net.reduce_seconds(bytes, 8) - net.reduce_seconds(0, 8),
              transfer, 1e-12);
}

TEST(NetworkModel, ValidateRejectsNonPhysicalParameters) {
  auto net = NetworkModel::ethernet_10g();
  EXPECT_NO_THROW(net.validate());
  net.bandwidth_gbps = 0.0;
  EXPECT_THROW(net.validate(), std::invalid_argument);
  net.bandwidth_gbps = -1.0;
  EXPECT_THROW(net.validate(), std::invalid_argument);
  net.bandwidth_gbps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(net.validate(), std::invalid_argument);
  net = NetworkModel::ethernet_10g();
  net.latency_s = -1e-6;
  EXPECT_THROW(net.validate(), std::invalid_argument);
  net.latency_s = 0.0;  // zero latency is physical (loopback limit)
  EXPECT_NO_THROW(net.validate());
}

TEST(NetworkModel, CollectivesDegenerateGracefully) {
  const auto net = NetworkModel::ethernet_10g();
  // K <= 1: no peers, no cost — including the K = 0 edge.
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{1} << 24}) {
    for (const int workers : {-1, 0, 1}) {
      EXPECT_EQ(net.reduce_seconds(bytes, workers), 0.0);
      EXPECT_EQ(net.broadcast_seconds(bytes, workers), 0.0);
    }
  }
  // Zero bytes still pays the per-level latency.
  EXPECT_GT(net.reduce_seconds(0, 2), 0.0);
}

TEST(NetworkModel, NonPowerOfTwoRoundsUpToTheNextLevel) {
  const auto net = NetworkModel::pcie_peer();
  const double level = net.reduce_seconds(0, 2);
  // ceil(log2): 3 workers price like 4, 5..8 like 8, 9 like 16.
  EXPECT_NEAR(net.reduce_seconds(0, 3), net.reduce_seconds(0, 4), 1e-15);
  EXPECT_NEAR(net.reduce_seconds(0, 5), net.reduce_seconds(0, 8), 1e-15);
  EXPECT_NEAR(net.broadcast_seconds(0, 6), 3.0 * level, 1e-15);
  EXPECT_NEAR(net.reduce_seconds(0, 9), 4.0 * level, 1e-15);
}

TEST(NetworkModel, PresetOrdering) {
  const auto eth10 = NetworkModel::ethernet_10g();
  const auto eth100 = NetworkModel::ethernet_100g();
  const auto pcie = NetworkModel::pcie_peer();
  // 100GbE and PCIe both out-run 10GbE for a 1 MB shared vector.
  const std::size_t bytes = 1 << 20;
  EXPECT_LT(eth100.reduce_seconds(bytes, 8), eth10.reduce_seconds(bytes, 8));
  EXPECT_LT(pcie.reduce_seconds(bytes, 8), eth10.reduce_seconds(bytes, 8));
  // PCIe has the lowest latency.
  EXPECT_LT(pcie.latency_s, eth10.latency_s);
}

TEST(NetworkModel, PresetParsesTheNetworkTokens) {
  EXPECT_EQ(NetworkModel::preset("10gbe").name,
            NetworkModel::ethernet_10g().name);
  EXPECT_EQ(NetworkModel::preset("100gbe").name,
            NetworkModel::ethernet_100g().name);
  EXPECT_EQ(NetworkModel::preset("pcie").name,
            NetworkModel::pcie_peer().name);
  for (const char* bad : {"", "10GbE", "infiniband", "pcie "}) {
    EXPECT_THROW(NetworkModel::preset(bad), std::invalid_argument) << bad;
  }
}

}  // namespace
}  // namespace tpa::cluster
