// TPA-SCD: twice-parallel asynchronous stochastic coordinate descent
// (paper Algorithm 2, the primary contribution).
//
// First level of parallelism: each coordinate update of an epoch is one GPU
// thread block; the blocks execute asynchronously on the device's streaming
// multiprocessors — modelled by the AsyncEngine with window equal to
// the device's resident-block count and atomic-add commits (the paper uses
// hardware float atomics, so no updates are lost).
//
// Second level: inside a block, `threads_per_block` threads compute the
// partial inner product in a strided loop, tree-reduce it through shared
// memory, thread 0 forms Δβ_m, and all threads scatter the shared-vector
// update — gpusim::BlockContext reproduces that execution, including its
// 32-bit float summation order.
//
// The sweep is the block step on the engine (or, with merge_every > 0, on
// core::replicated_sweep); core::Solver supplies the rest of the epoch.
// Runtime comes from gpusim::GpuTimingModel; the one-time dataset upload is
// charged through the PCIe model and device memory capacity is enforced
// (loading a matrix larger than device memory throws OutOfDeviceMemory,
// which is exactly the paper's motivation for the distributed Section V).
#pragma once

#include "core/replica_set.hpp"
#include "core/round_engine.hpp"
#include "core/solver.hpp"
#include "gpusim/block_context.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_memory.hpp"
#include "gpusim/timing_model.hpp"

namespace tpa::core {

struct TpaScdOptions {
  gpusim::DeviceSpec device = gpusim::DeviceSpec::titan_x();
  gpusim::PcieLink pcie{};
  /// When true, the dataset's size is charged against device memory at
  /// *paper scale* (if PaperScale metadata is present), so that e.g. the
  /// criteo sample correctly refuses to fit on a single GPU.
  bool charge_paper_scale_memory = false;
  /// Overrides the device's asynchrony window (0 = use
  /// DeviceSpec::async_staleness()).  Used by the staleness ablation bench
  /// to study how far block-level asynchrony can be pushed before
  /// convergence degrades.
  int async_window_override = 0;
  /// 0 (default): every block commits its shared-vector update immediately
  /// with hardware float atomics — the paper's write-back.  > 0: the
  /// resident blocks are the lanes of core::replicated_sweep, the CPU
  /// replicated solver's body, and batch their write-backs into per-lane
  /// replicas folded every merge_every updates per lane.  Fixed for the
  /// solver's lifetime; must not be negative.
  int merge_every = 0;
};

class TpaScdSolver final : public Solver {
 public:
  /// Builds the solver and "uploads" the dataset to the device: allocates
  /// against device memory (throws gpusim::OutOfDeviceMemory if it does not
  /// fit) and records the PCIe transfer as setup time.
  TpaScdSolver(const RidgeProblem& problem, Formulation f,
               std::uint64_t seed, TpaScdOptions options = {});

  double setup_sim_seconds() const override { return setup_sim_seconds_; }

  const gpusim::DeviceSpec& device() const noexcept { return options_.device; }
  const gpusim::DeviceMemory& device_memory() const noexcept {
    return memory_;
  }

 private:
  double sweep(std::span<const std::uint32_t> order) override;

  TpaScdOptions options_;
  AsyncEngine engine_;
  ReplicaSet replicas_;  // batched write-back only (merge_every > 0)
  gpusim::BlockContext block_;
  gpusim::GpuTimingModel timing_;
  gpusim::DeviceMemory memory_;
  gpusim::EpochWorkload workload_;
  double setup_sim_seconds_ = 0.0;
};

}  // namespace tpa::core
