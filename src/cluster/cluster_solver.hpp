// The master both cluster drivers share (paper Algorithms 3 and 4).
//
// One master step — choose γ for the workers' summed shared-vector deltas,
// apply it, and rescale the contributing workers' weight moves by the same
// factor so  shared == A·(assembled weights)  stays exact — is the same
// whether it runs once per barrier round on K deltas (DistributedSolver) or
// once per push on one delta (AsyncSolver): Hybrid-DCA's two points on one
// spectrum (PAPERS.md).  ClusterSolver owns that step and everything around
// it that does not depend on the schedule:
//   - ClusterConfig, its validation, placement planning, the partition and
//     each worker's data plane (shard, local problem, local solver);
//   - delta transit: forming Δ, the codec, checksums, injected corruption
//     and bytes-on-wire accounting;
//   - γ (averaging, fixed, or Algorithm 4's line search from
//     cluster/aggregation) and the invariant-preserving apply;
//   - crash counting, the event log, round attribution, the queries, the
//     checkpoint snapshot, validation and weight scatter, and the round
//     core::run_loop runs (event forwarding, checkpoint cadence).
// The drivers keep only their schedulers: the barrier round with its grace
// deadline, late-delta buffering and epoch-counted backoff
// (dist_solver.hpp), and the event loop with its staleness window,
// membership and .async sidecar (async_solver.hpp).  DESIGN.md §8/§13.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/aggregation.hpp"
#include "cluster/delta_codec.hpp"
#include "cluster/fault_injector.hpp"
#include "cluster/network_model.hpp"
#include "cluster/partition.hpp"
#include "cluster/placement/annealer.hpp"
#include "cluster/placement/fleet.hpp"
#include "core/convergence.hpp"
#include "core/model_io.hpp"
#include "core/solver_factory.hpp"
#include "obs/attribution.hpp"

namespace tpa::cluster {

// Virtual trace tracks: the simulation runs on one OS thread, but the
// exported timeline should still read as a cluster — one track for the
// master's aggregation phases and one per simulated worker.  The sync and
// async solvers use disjoint bases so a process that runs both (the
// ablation bench) exports distinguishable timelines.
inline constexpr std::int32_t kMasterTrack = 1000;       // dist/*
inline constexpr std::int32_t kAsyncMasterTrack = 2000;  // async/*

constexpr std::int32_t worker_track(std::int32_t master_track, int worker) {
  return worker < 0 ? master_track : master_track + 1 + worker;
}

/// Virtual track for the simulated-time attribution spans (attr/round and
/// its component tiles) of the driver rooted at `master_track`.  Offset 500
/// keeps it clear of any realistic worker count while staying between the
/// sync (1000) and async (2000) bases.
inline constexpr std::int32_t kAttrTrackOffset = 500;

constexpr std::int32_t attribution_track(std::int32_t master_track) {
  return master_track + kAttrTrackOffset;
}

// Flow ids for the causal delta/model arrows.  The id only has to be unique
// per begin/end pair within one trace: pack (track base, epoch, worker) so
// sync and async drivers — and different epochs — can never collide.  Bit 39
// distinguishes the master→worker model-broadcast flows from the
// worker→master delta flows of the same (epoch, worker).
constexpr std::uint64_t delta_flow_id(std::int32_t master_track, int epoch,
                                      int worker) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(master_track))
          << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(epoch) &
                                     0x7FFFFFu)
          << 16) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(worker) &
                                    0xFFFFu);
}

constexpr std::uint64_t model_flow_id(std::int32_t master_track, int epoch,
                                      int worker) {
  return delta_flow_id(master_track, epoch, worker) |
         (std::uint64_t{1} << 39);
}

/// Periodic checkpointing for ClusterSolver::run: every `every_epochs`
/// outer epochs (and after the final one) the solver's checkpoint is written
/// atomically to `path`.
struct CheckpointConfig {
  std::string path;
  int every_epochs = 0;  // 0 disables

  bool enabled() const noexcept { return every_epochs > 0 && !path.empty(); }
};

/// The configuration both drivers share.  DistConfig and AsyncConfig add
/// only their schedulers' knobs.
struct ClusterConfig {
  core::Formulation formulation = core::Formulation::kDual;
  int num_workers = 4;
  AggregationMode aggregation = AggregationMode::kAveraging;
  /// γ used when aggregation == kFixed (Smith et al. [25] treat it as a
  /// free hyper-parameter; the ablation bench sweeps it against Algorithm
  /// 4's computed optimum).  Must be finite.
  double fixed_gamma = 1.0;
  /// Local passes per communication round (H ≥ 1).  The paper (Sect. IV.A,
  /// citing [23]) notes an infrastructure-dependent trade-off between
  /// computation and communication: more local work per round amortises the
  /// network cost but each pass uses a staler shared vector, slowing
  /// convergence per update.  H = 1 is Algorithm 3 exactly.
  int local_epochs_per_round = 1;
  /// Local solver configuration; its formulation field is overridden by
  /// `formulation` above and its seed is offset per worker slot, so the same
  /// (config, seed) pair drives both drivers over identical local streams.
  core::SolverConfig local_solver{};
  NetworkModel network = NetworkModel::ethernet_10g();
  double lambda = 1e-3;
  std::uint64_t seed = 99;

  // ---- Fault layer ----
  /// Deterministic fault schedule; defaults to no faults.
  FaultConfig faults{};
  /// Crashes a worker survives before permanent eviction; backoff between
  /// restart attempts doubles each time.
  int max_restarts = 3;

  // ---- Heterogeneous placement (DESIGN.md §14) ----
  /// Per-worker device specs.  Empty = homogeneous cluster: every worker
  /// runs `local_solver` and the placement layer is bypassed entirely, so
  /// pre-placement runs reproduce bit-for-bit.  When set, the size must
  /// equal num_workers; worker k runs fleet[k]'s solver on a partition
  /// sized by the placement plan.
  placement::FleetSpec fleet{};
  /// kUniform reproduces the legacy equal split (bit-exact: same single
  /// permutation draw from `seed`); kOptimize runs the seeded annealer over
  /// partition sizes against the placement cost model.
  placement::PlacementMode placement = placement::PlacementMode::kUniform;
  /// Seed of the annealer's proposal stream (independent of `seed`, which
  /// keeps drawing the coordinate permutation).
  std::uint64_t placement_seed = 7;

  // ---- Compressed delta exchange (DESIGN.md §16) ----
  /// Quantize worker → master deltas: fp16 payload with one fp32 scale per
  /// 256-entry block, checksummed in encoded form
  /// (cluster/delta_codec.hpp).  The master → worker leg stays the dense
  /// fp32 model — workers must start from the master's exact state.  Off by
  /// default; the uncompressed path is bit-identical to the historical
  /// exchange.
  bool compress_deltas = false;
};

/// The data-plane share of a simulated worker: its shard, the local view of
/// the ridge problem (carrying the *global* example count so the λN terms
/// match the global objective, Section IV.A), the local solver seeded
/// per-slot, and the committed weights its in-flight local work started
/// from.  The control-plane state differs between the drivers and lives in
/// their own Worker structs.
struct WorkerCore {
  data::Dataset shard;
  std::unique_ptr<core::RidgeProblem> problem;
  std::unique_ptr<core::Solver> solver;
  std::vector<float> weights_start;
};

class ClusterSolver {
 public:
  virtual ~ClusterSolver() = default;
  ClusterSolver(const ClusterSolver&) = delete;
  ClusterSolver& operator=(const ClusterSolver&) = delete;

  /// One round of the driver's schedule: a barrier round (sync) or one push
  /// attempt per live member (async).
  virtual core::EpochReport run_epoch() = 0;
  /// Writes the driver's checkpoint to `path` (plus the async sidecar).
  virtual void write_checkpoint_file(const std::string& path) = 0;

  /// Runs the solver through core::run_loop from current_epoch() (nonzero
  /// after a restore), adding γ, the contributor count and every fault
  /// event to the trace and checkpointing on the configured cadence, plus
  /// a final checkpoint so a later --resume continues where the run
  /// stopped (none after a divergence).  Behind run_distributed and
  /// run_async.
  core::ConvergenceTrace run(const core::RunOptions& options,
                             const CheckpointConfig& ckpt = {});

  int num_workers() const noexcept { return config_.num_workers; }
  core::Formulation formulation() const noexcept {
    return config_.formulation;
  }
  const core::RidgeProblem& global_problem() const noexcept {
    return global_problem_;
  }

  /// Duality gap of the assembled global model.  A non-null pool
  /// parallelises the evaluation (see core::RidgeProblem::duality_gap).
  double duality_gap(util::ThreadPool* pool = nullptr) const;

  /// One-time setup: slowest worker's dataset upload (GPU locals only).
  double setup_sim_seconds() const;

  /// Assembles the global weight vector (β or α) from the workers'
  /// committed local pieces via the partition.
  std::vector<float> global_weights() const;
  const std::vector<float>& global_shared() const noexcept {
    return shared_;
  }

  /// The coordinate partition in force (placement-sized when a fleet is
  /// configured; the legacy equal split otherwise).
  const Partition& partition() const noexcept { return partition_; }

  /// The placement plan (chosen sizes, uniform baseline, predictions, SA
  /// trajectory); nullptr when no fleet is configured.
  const placement::PlacementResult* placement_result() const noexcept {
    return placement_result_ ? &*placement_result_ : nullptr;
  }

  /// Rounds completed (monotone; restore() fast-forwards it).
  int current_epoch() const noexcept { return round_; }
  /// γ of the most recent master step (0 before the first one, and for a
  /// sync round in which no worker's delta landed).
  double last_gamma() const noexcept { return last_gamma_; }
  /// Sync: workers whose delta landed in the most recent round.  Async: the
  /// live member count as of the last round.
  int last_contributors() const noexcept { return last_contributors_; }
  /// Every fault / recovery / membership event since construction.
  const std::vector<core::ClusterEvent>& events() const noexcept {
    return events_;
  }

  /// Cumulative bytes of delta payload that crossed the wire (encoded form
  /// when compression is on; the raw fp64 vector otherwise) and the raw
  /// fp64 baseline for the same deltas — the ≥2x reduction the precision
  /// ablation gates on is wire/dense.
  std::uint64_t delta_bytes_on_wire() const noexcept {
    return delta_bytes_on_wire_;
  }
  std::uint64_t delta_bytes_dense() const noexcept {
    return delta_bytes_dense_;
  }

  /// Round attribution (DESIGN.md §15): the most recent round's breakdown,
  /// the cumulative breakdown, and the round count behind it.  Components
  /// sum to the corresponding sim_seconds.
  const obs::RoundAttribution& last_attribution() const noexcept {
    return last_attr_;
  }
  const obs::RoundAttribution& attribution_totals() const noexcept {
    return attr_totals_;
  }
  std::uint64_t attribution_rounds() const noexcept { return attr_rounds_; }

 protected:
  /// Validates `config`, plans the placement, partitions `global` (same
  /// single permutation draw from config.seed for both drivers, so the two
  /// arms of an ablation own identical shards) and builds every worker's
  /// data plane.  `who` prefixes error messages; `track_prefix` names the
  /// master, attribution and worker trace tracks under `master_track`.
  /// `comm_overlap` prices the overlapped reduce in the placement plan.
  /// Throws std::invalid_argument on an invalid config.
  ClusterSolver(const data::Dataset& global, const ClusterConfig& config,
                const char* who, std::int32_t master_track,
                const std::string& track_prefix, bool comm_overlap);

  /// The weights the master's shared vector reflects for worker `k`.
  virtual std::span<const float> committed_weights(std::size_t k) const;

  WorkerCore& core(std::size_t k) { return *cores_[k]; }
  const WorkerCore& core(std::size_t k) const { return *cores_[k]; }
  /// Worker `k`'s local solver configuration: its fleet device's (or the
  /// homogeneous local_solver), in the global formulation, seeded per slot.
  core::SolverConfig local_config(std::size_t k) const;
  /// Worker `k`'s paper-scale owned coordinates, which its host passes scale
  /// with: the legacy per-worker mean without a fleet (so pre-placement
  /// numbers replay bit-for-bit), its placement-sized share with one.
  double host_coordinates(std::size_t k) const;
  /// The pull: worker `k` starts local work from the master's shared vector
  /// and its committed weights, then runs local_epochs_per_round local
  /// epochs.  Returns their simulated seconds.
  double run_local_epochs(std::size_t k);

  void record_event(int worker, core::ClusterEventKind kind);
  /// Counts a crash of `worker`: records kCrash and, once `crash_count`
  /// exceeds max_restarts, kEvict.  Returns true when the worker is evicted.
  bool count_crash(int worker, int& crash_count);

  /// What one delta looks like to the master after transit.
  struct Transit {
    std::size_t wire_bytes = 0;  // encoded size, or the raw fp64 image
    bool verified = true;        // false: checksum caught a corruption
  };
  /// Forms Δ = local − base in `delta` and sends it worker → master: under
  /// compression it is quantized and checksummed in encoded form — in the
  /// one frame this solver reuses for every delta — and `delta` ends as the
  /// decoded image the master works with (so the invariant holds up to the
  /// fp16 quantization error, DESIGN.md §16); otherwise the raw fp64 delta
  /// travels.  With `corrupt` one bit flips in transit and the master's
  /// checksum rejects the delta.  Bytes are charged separately
  /// (charge_wire), when the delta reaches the master.
  Transit send_delta(std::span<const float> local, std::span<const float> base,
                     bool corrupt, std::vector<double>& delta);
  /// Bytes-on-wire accounting for a delta that reached the master, with the
  /// raw fp64 size recorded as the baseline.
  void charge_wire(std::size_t wire_bytes);

  /// One worker's weight move in a master step: start → current weights,
  /// or — for a sync straggler's late delta — the buffered fp32 move
  /// `late_dweights` on top of the current (rolled-back) weights.
  struct WorkerMove {
    std::size_t worker = 0;
    const std::vector<float>* late_dweights = nullptr;
  };
  /// γ for the summed move `dshared` of `moves`: 0 for no moves; `fallback`
  /// (1/contributors or 1/live) under averaging; fixed_gamma; or
  /// Algorithm 4's line search, exact along the summed direction against
  /// the master's current shared vector.
  double choose_gamma(std::span<const double> dshared,
                      std::span<const WorkerMove> moves,
                      double fallback) const;
  /// Applies step·dshared to the master's shared vector and rescales every
  /// move by the same step, so shared == A·weights is preserved exactly
  /// (the invariant is linear in the delta).
  void apply_step(std::span<const double> dshared,
                  std::span<const WorkerMove> moves, double step);

  /// Closes round round_: records `attr` as the last round, adds it to the
  /// totals and emits its attribution spans over `round_seconds` of
  /// simulated time on the monotone attribution clock.
  void close_round(const obs::RoundAttribution& attr, double round_seconds);

  /// The committed global state (assembled weights, shared vector, round).
  core::SavedModel saved_model() const;
  /// Throws std::logic_error unless no round has run, and
  /// std::invalid_argument on a formulation / dimension / lambda mismatch.
  void validate_checkpoint(const core::SavedModel& saved) const;
  /// Scatters the checkpoint's weights to the workers and restarts every
  /// worker's local shared copy from the checkpoint's shared vector.
  void scatter_checkpoint(const core::SavedModel& saved);

  ClusterConfig config_;
  core::RidgeProblem global_problem_;
  core::TimingWorkload global_workload_;  // paper-scale dims for host/net
  // Paper-scale bytes of the dense fp32 model (the master → worker leg and
  // the PCIe staging unit) and of one worker → master delta: the
  // dense-quantized wire size under compression (deterministic — what the
  // placement cost model prices), the dense fp32 image otherwise.
  std::size_t model_bytes_ = 0;
  std::size_t delta_leg_bytes_ = 0;
  FaultInjector injector_;
  Partition partition_;
  std::vector<float> shared_;  // the master's (global) shared vector
  std::vector<double> received_;  // scratch: the latest delta off the wire
  bool gpu_local_ = false;     // any worker stages over PCIe
  int round_ = 0;
  double last_gamma_ = 0.0;
  int last_contributors_ = 0;

 private:
  /// Calls fn(j, from, delta) for every coordinate j of `move`.
  template <typename Fn>
  void visit_move(const WorkerMove& move, Fn&& fn) const;

  const data::Dataset* global_;
  const char* who_;
  std::int32_t master_track_;
  std::optional<placement::PlacementResult> placement_result_;
  std::vector<std::unique_ptr<WorkerCore>> cores_;
  std::vector<core::ClusterEvent> events_;
  CompressedDelta frame_;  // the encoded delta in transit, reused
  std::uint64_t delta_bytes_on_wire_ = 0;
  std::uint64_t delta_bytes_dense_ = 0;
  obs::RoundAttribution last_attr_{};
  obs::RoundAttribution attr_totals_{};
  std::uint64_t attr_rounds_ = 0;
  // Monotone sim clock for the attribution spans: never re-zeroed by the
  // async checkpoint rendezvous, so rounds tile left-to-right.
  double attr_clock_seconds_ = 0.0;
};

}  // namespace tpa::cluster
