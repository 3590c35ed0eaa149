// The GPU substrate: device specs, block-level execution semantics, memory
// accounting, PCIe and epoch timing models.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "gpusim/block_context.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_memory.hpp"
#include "gpusim/timing_model.hpp"

namespace tpa::gpusim {
namespace {

TEST(DeviceSpec, PresetsMatchPublishedSpecs) {
  const auto m4000 = DeviceSpec::quadro_m4000();
  EXPECT_EQ(m4000.num_sms, 13);
  EXPECT_EQ(m4000.mem_capacity_bytes, 8ULL << 30);
  const auto titan = DeviceSpec::titan_x();
  EXPECT_EQ(titan.num_sms, 24);
  EXPECT_EQ(titan.mem_capacity_bytes, 12ULL << 30);
  EXPECT_GT(titan.fp32_tflops, m4000.fp32_tflops);
  EXPECT_GT(titan.mem_bandwidth_gbps, m4000.mem_bandwidth_gbps);
}

TEST(DeviceSpec, ResidencyAndStalenessScaleWithSms) {
  const auto titan = DeviceSpec::titan_x();
  EXPECT_EQ(titan.resident_blocks(), 24 * 16);
  EXPECT_EQ(titan.async_staleness(), 48);
  EXPECT_LT(titan.async_staleness(), titan.resident_blocks());
}

TEST(DeviceSpec, FitsChecksCapacity) {
  const auto titan = DeviceSpec::titan_x();
  EXPECT_TRUE(titan.fits(1ULL << 30));
  EXPECT_TRUE(titan.fits(titan.mem_capacity_bytes));
  EXPECT_FALSE(titan.fits(titan.mem_capacity_bytes + 1));
  // The paper's motivating case: 40 GB criteo does not fit, 8 GB webspam
  // does (just) on the M4000.
  EXPECT_FALSE(titan.fits(40ULL << 30));
  EXPECT_TRUE(DeviceSpec::quadro_m4000().fits(
      static_cast<std::size_t>(7.3 * (1ULL << 30))));
}

TEST(PcieLink, PinnedBeatsPageableAndScalesWithBytes) {
  const PcieLink link;
  EXPECT_LT(link.transfer_seconds(1 << 20, true),
            link.transfer_seconds(1 << 20, false));
  EXPECT_LT(link.transfer_seconds(1 << 20, true),
            link.transfer_seconds(1 << 21, true));
  // Latency floor: even zero bytes cost the link latency.
  EXPECT_GE(link.transfer_seconds(0, true), link.latency_s);
}

TEST(BlockContext, RejectsNonPowerOfTwoThreads) {
  EXPECT_THROW(BlockContext(0), std::invalid_argument);
  EXPECT_THROW(BlockContext(-4), std::invalid_argument);
  EXPECT_THROW(BlockContext(96), std::invalid_argument);
  EXPECT_NO_THROW(BlockContext(1));
  EXPECT_NO_THROW(BlockContext(128));
}

TEST(BlockContext, ReduceMatchesExactSumOnIntegers) {
  BlockContext block(8);
  // Integer-valued floats add exactly in any order.
  const double sum = block.strided_reduce(
      100, [](std::size_t i) { return static_cast<float>(i); });
  EXPECT_EQ(sum, 99.0 * 100.0 / 2.0);
}

TEST(BlockContext, ReduceCloseToDoubleReference) {
  BlockContext block(128);
  std::vector<float> terms(10000);
  for (std::size_t i = 0; i < terms.size(); ++i) {
    terms[i] = std::sin(static_cast<double>(i)) * 0.01F;
  }
  double reference = 0.0;
  for (const auto t : terms) reference += t;
  const double gpu_sum = block.strided_reduce(
      terms.size(), [&](std::size_t i) { return terms[i]; });
  EXPECT_NEAR(gpu_sum, reference, 1e-3);
  // ...but the float tree order generally differs from sequential float
  // accumulation — that difference is what the simulator preserves.
}

TEST(BlockContext, ReduceUsesGpuTreeOrder) {
  // With 2 threads and 3 terms: t0 sums idx 0,2; t1 sums idx 1; then
  // cache[0] += cache[1].  Choose values where that order is observable in
  // float: (a+c)+b differs from a+b+c when magnitudes differ wildly.
  BlockContext block(2);
  const float values[3] = {1e8F, 1.0F, -1e8F};
  const double gpu_sum = block.strided_reduce(
      3, [&](std::size_t i) { return values[i]; });
  // Tree order: (1e8 + -1e8) + 1 = 1.  Sequential float order:
  // (1e8 + 1) + -1e8 = 0 (the 1 is absorbed).
  EXPECT_EQ(gpu_sum, 1.0);
  float sequential = 0.0F;
  for (const auto v : values) sequential += v;
  EXPECT_EQ(sequential, 0.0F);
}

TEST(BlockContext, ReduceOfNothingIsZero) {
  BlockContext block(32);
  EXPECT_EQ(block.strided_reduce(0, [](std::size_t) { return 1.0F; }), 0.0);
}

TEST(DeviceMemory, TracksAllocationsAndThrowsWhenFull) {
  DeviceMemory memory(DeviceSpec::titan_x());
  EXPECT_EQ(memory.allocated(), 0u);
  memory.allocate(1ULL << 30);
  EXPECT_EQ(memory.allocated(), 1ULL << 30);
  EXPECT_EQ(memory.available(), memory.capacity() - (1ULL << 30));
  EXPECT_THROW(memory.allocate(memory.capacity()), OutOfDeviceMemory);
  memory.release(1ULL << 30);
  EXPECT_EQ(memory.allocated(), 0u);
}

TEST(DeviceMemory, ReleaseClampsAtZero) {
  DeviceMemory memory(DeviceSpec::quadro_m4000());
  memory.allocate(100);
  memory.release(1000);
  EXPECT_EQ(memory.allocated(), 0u);
}

TEST(DeviceMemory, ErrorMessageNamesDevice) {
  DeviceMemory memory(DeviceSpec::titan_x());
  try {
    memory.allocate(memory.capacity() + 1);
    FAIL() << "expected OutOfDeviceMemory";
  } catch (const OutOfDeviceMemory& e) {
    EXPECT_NE(std::string(e.what()).find("Titan X"), std::string::npos);
  }
}

TEST(TimingModel, LinearInNnz) {
  const GpuTimingModel model(DeviceSpec::titan_x());
  EpochWorkload small{1'000'000, 1000, 100'000};
  EpochWorkload big = small;
  big.nnz *= 10;
  EXPECT_GT(model.epoch_seconds(big), 5.0 * model.epoch_seconds(small));
}

TEST(TimingModel, SharedVectorInL2IsFaster) {
  const GpuTimingModel model(DeviceSpec::quadro_m4000());
  EpochWorkload fits{500'000'000, 100'000, 250'000};   // 1 MB shared: in L2
  EpochWorkload spills = fits;
  spills.shared_dim = 2'000'000;                       // 8 MB: DRAM
  EXPECT_LT(model.epoch_seconds(fits), model.epoch_seconds(spills));
}

TEST(TimingModel, BlockOverheadGrowsWithCoordinateCount) {
  const GpuTimingModel model(DeviceSpec::titan_x());
  EpochWorkload few{100'000'000, 100'000, 1'000'000};
  EpochWorkload many = few;
  many.num_coordinates = 50'000'000;  // criteo-style tiny rows
  EXPECT_GT(model.epoch_seconds(many), model.epoch_seconds(few));
}

TEST(TimingModel, TitanXBeatsM4000OnSameWorkload) {
  const EpochWorkload w{900'000'000, 262'938, 680'715};
  const GpuTimingModel titan(DeviceSpec::titan_x());
  const GpuTimingModel m4000(DeviceSpec::quadro_m4000());
  EXPECT_LT(titan.epoch_seconds(w), m4000.epoch_seconds(w));
}

TEST(TimingModel, ByteAndFlopAccounting) {
  const GpuTimingModel model(DeviceSpec::titan_x());
  const EpochWorkload w{100, 10, 50};
  EXPECT_EQ(model.matrix_bytes(w), 1600u);
  EXPECT_EQ(model.shared_vector_bytes(w), 1200u);
  EXPECT_EQ(model.epoch_bytes(w), 2800u);
  EXPECT_EQ(model.epoch_flops(w), 400u);
}

}  // namespace
}  // namespace tpa::gpusim
