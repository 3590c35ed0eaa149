// Heterogeneous fleet description for the placement optimizer (DESIGN.md
// §14).
//
// The paper's distributed hardware is wildly asymmetric — four Xeon boxes
// over 10 GbE in one experiment, four Titan X GPUs over PCIe in another —
// yet the cluster drivers historically handed every worker an equal
// partition.  A FleetSpec names what each worker slot actually is: a CPU
// thread pool priced by core::CpuCostModel (replicated SCD locally, PR 5),
// or a simulated GPU priced by gpusim::GpuTimingModel.  The placement layer
// uses the per-device epoch_seconds() to size partitions so every device
// finishes its local epoch at roughly the same time.
#pragma once

#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/solver_factory.hpp"
#include "gpusim/device.hpp"

namespace tpa::cluster::placement {

/// One worker slot of a heterogeneous fleet.  (Distinct from
/// gpusim::DeviceSpec, which describes only the GPU silicon; this wraps
/// either that or a CPU pool behind one timing interface.)
struct DeviceSpec {
  enum class Kind { kCpuPool, kGpu };

  Kind kind = Kind::kCpuPool;
  std::string label;  // "cpu:4", "m4000", "titanx" — the --fleet token

  // CPU pool: `threads` lanes of replicated SCD (threads == 1 runs the
  // sequential solver) priced by `cpu`.
  int threads = 1;
  core::CpuCostModel cpu{};

  // GPU: the solver kind selects the gpusim device inside make_solver; the
  // matching silicon spec feeds the placement cost model.
  core::SolverKind gpu_solver = core::SolverKind::kTpaTitanX;
  gpusim::DeviceSpec gpu{};

  bool is_gpu() const noexcept { return kind == Kind::kGpu; }

  /// Local-solver kind this device runs (seq / rep-threads / tpa-*).
  core::SolverKind solver_kind() const noexcept;

  /// Per-slot SolverConfig: `base` supplies the shared fields (seed base,
  /// merge_every, ...); kind, threads and cpu_cost come from the device.
  core::SolverConfig solver_config(const core::SolverConfig& base) const;

  /// Simulated seconds for ONE local epoch over `w` on this device — the
  /// same formula the device's solver charges (CpuCostModel sequential time
  /// over the replicated speed-up, or GpuTimingModel::epoch_seconds), so the
  /// optimizer's objective matches the simulated round engine.
  double epoch_seconds(const core::TimingWorkload& w) const;

  static DeviceSpec cpu_pool(int threads);
  static DeviceSpec titan_x();
  static DeviceSpec m4000();
};

/// A fleet is one DeviceSpec per worker slot; empty = homogeneous cluster
/// configured the pre-placement way (DistConfig::local_solver everywhere).
using FleetSpec = std::vector<DeviceSpec>;

/// Parses a --fleet string: comma-separated `<count>x<device>` groups where
/// device is `cpu[:threads]` | `m4000` | `titanx`, e.g. "4xtitanx,4xcpu:4"
/// = four Titan X workers plus four 4-thread CPU pool workers (16 cores).
/// Throws std::invalid_argument on malformed specs, unknown devices,
/// non-positive counts/threads, or an empty fleet.
FleetSpec parse_fleet_spec(const std::string& spec);

/// Human-readable one-liner, e.g. "4xtitanx + 4xcpu:4 (8 workers)".
std::string fleet_summary(const FleetSpec& fleet);

/// True if any slot is a GPU (the round engine charges PCIe transfers).
bool fleet_has_gpu(const FleetSpec& fleet);

}  // namespace tpa::cluster::placement
