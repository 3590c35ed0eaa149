// The one cluster driver (paper Algorithms 3 and 4, Section V).
//
// K simulated workers each own a shard of the data (by feature for the
// primal, by example for the dual) and a local solver — any core::Solver,
// from sequential SCD to TPA-SCD on a simulated GPU.  Each worker cycles
// pull → local epochs → push against the master, and one master step —
// choose γ for the summed shared-vector deltas, apply it, and rescale the
// contributing workers' weight moves by the same factor so
//   shared == A·(assembled weights)
// stays exact — takes what the master has received.  Hybrid-DCA (PAPERS.md)
// treats the synchronous and asynchronous schedules as two points on one
// spectrum; here they are one event loop, and the config type picks the
// point (DESIGN.md §8):
//   - DistConfig rounds close on a barrier.  Every idle member pulls the
//     round's broadcast; pushes queue until every member scheduled this
//     round has pushed or the grace deadline passes; the queue is summed in
//     worker-index order and takes one master step (Algorithm 4 over the
//     batch).  The round is priced as the collective: the wait, host
//     arithmetic, PCIe staging and the tree (or overlapped) reduce plus
//     broadcast.
//   - AsyncConfig rounds have no barrier: the master takes one step per
//     push the moment it lands (a queue of one), bounded by a staleness
//     window, and the round is the observation cadence of a continuous
//     event timeline.
// Everything else exists once and serves both: the deterministic event
// timeline (per-cycle durations come from the timing models, so the
// interleaving — and therefore the numerics — is a pure function of
// (config, seeds)), the fault layer (crash backoff doubling in timeline
// seconds, eviction that freezes a partition, stragglers whose late deltas
// land in the round their push arrives in), elastic membership, and the
// checkpoint protocol (the .async control-plane sidecar, written after a
// rendezvous without a barrier and with the late deltas in flight with
// one, so a resumed run replays the original bit for bit, faults included).
//
// The workers compute side by side, as Algorithm 3 has them: when
// core::pool_dispatch() predicts a win, the driver owns a host pool of
// min(num_workers, usable CPUs) threads, builds the workers on it and runs
// each scheduled cycle's local epochs there as one task.  Everything that
// touches driver state stays on the calling thread, and a cycle is joined
// only where its worker's local state is read next, so the gap evaluation
// and the master steps overlap the cycles still computing.  A cycle's
// epochs read and write only their own worker's state, from inputs fixed at
// the pull, so where they run cannot move a bit (DESIGN.md §8).
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
#include "cluster/placement/planner.hpp"
#include "cluster/placement/fleet.hpp"
#include "core/convergence.hpp"
#include "core/model_io.hpp"
#include "core/solver_factory.hpp"
#include "obs/attribution.hpp"
#include "util/thread_pool.hpp"

namespace tpa::cluster {

// Virtual trace tracks: the master's steps run on the calling thread and
// the workers' local epochs on whichever pool thread (or the calling
// thread) runs them, but the exported timeline should read as a cluster —
// one track for the master's aggregation phases and one per simulated
// worker, whatever OS thread recorded the span.  Barrier and
// no-barrier runs use disjoint bases so a process that runs both (the
// ablation bench) exports distinguishable timelines.
inline constexpr std::int32_t kMasterTrack = 1000;       // dist/*
inline constexpr std::int32_t kAsyncMasterTrack = 2000;  // async/*

constexpr std::int32_t worker_track(std::int32_t master_track, int worker) {
  return worker < 0 ? master_track : master_track + 1 + worker;
}

/// Virtual track for the simulated-time attribution spans (attr/round and
/// its component tiles) of the driver rooted at `master_track`.  Offset 500
/// keeps it clear of any realistic worker count while staying between the
/// two bases.
inline constexpr std::int32_t kAttrTrackOffset = 500;

constexpr std::int32_t attribution_track(std::int32_t master_track) {
  return master_track + kAttrTrackOffset;
}

/// Periodic checkpointing for ClusterSolver::run: every `every_epochs`
/// outer epochs (and after the final one) the solver's checkpoint is written
/// atomically to `path` (and its sidecar to async_state_path(path)).
struct CheckpointConfig {
  std::string path;
  int every_epochs = 0;  // 0 disables

  bool enabled() const noexcept { return every_epochs > 0 && !path.empty(); }
};

/// The configuration both schedules share.  DistConfig and AsyncConfig add
/// only their schedule's knobs.
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
  /// (config, seed) pair drives both schedules over identical local streams.
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
  /// permutation draw from `seed`); kOptimize sizes the partitions by the
  /// makespan split when the placement cost model prices it cheaper.
  placement::PlacementMode placement = placement::PlacementMode::kUniform;

  // ---- Compressed delta exchange (DESIGN.md §16) ----
  /// Quantize worker → master deltas: fp16 payload with one fp32 scale per
  /// 256-entry block, checksummed in encoded form
  /// (cluster/delta_codec.hpp).  The master → worker leg stays the dense
  /// fp32 model — workers must start from the master's exact state.  Off by
  /// default; the uncompressed path is bit-identical to the historical
  /// exchange.
  bool compress_deltas = false;
};

/// Barrier rounds (paper Algorithm 3).
struct DistConfig : ClusterConfig {
  DistConfig() = default;
  explicit DistConfig(const ClusterConfig& shared) : ClusterConfig(shared) {}

  /// Straggler deadline multiplier: the master waits
  /// grace × (slowest healthy compute + network round) for the pushes of
  /// the members it scheduled, then aggregates without the laggards.  Must
  /// be > 1.
  double straggler_grace = 1.5;
  /// Overlap each worker's delta reduce with the remaining workers' compute:
  /// the master ingests deltas as they arrive, so only the post-overlap
  /// exposed network time is charged.  For homogeneous arrival times the
  /// binomial tree is never beaten and the round time is unchanged — overlap
  /// pays off exactly when placements are imbalanced.
  bool comm_overlap = false;
};

/// What the master does with a no-barrier delta staler than the window τ.
enum class StalenessPolicy {
  kDamp,    // apply with θ = τ/staleness (under-relaxation)
  kReject,  // discard; the worker re-pulls and recomputes
};

const char* staleness_policy_name(StalenessPolicy policy);
StalenessPolicy parse_staleness_policy(const std::string& name);

/// Scripted elastic membership change, applied at the start of its round.
struct MembershipEvent {
  enum class Kind { kLeave, kJoin };
  int round = 0;   // 1-based outer round at whose start the event fires
  int worker = 0;  // partition slot
  Kind kind = Kind::kLeave;
};

/// No-barrier rounds with bounded staleness and elastic membership.
struct AsyncConfig : ClusterConfig {
  AsyncConfig() = default;
  explicit AsyncConfig(const ClusterConfig& shared) : ClusterConfig(shared) {}

  /// Bounded-staleness window τ in master versions; 0 picks
  /// core::cluster_staleness_window(live) adaptively each push, so healthy
  /// steady-state runs (staleness ≈ live − 1) are never damped.
  int staleness_window = 0;
  StalenessPolicy staleness_policy = StalenessPolicy::kDamp;

  /// Scripted join/leave schedule (--elastic drills).  Events must name
  /// rounds >= 1 and valid slots; a join revives a detached (left or
  /// evicted) slot, a leave detaches an attached one; mismatches are
  /// ignored so schedules compose with fault-driven evictions.
  std::vector<MembershipEvent> membership;
};

enum class AsyncWorkerStatus {
  kComputing,  // attached; cycling or waiting for the next round
  kBackoff,    // attached; crashed, waiting out its exponential backoff
  kDetached,   // left or evicted; partition frozen until a join
};

const char* async_worker_status_name(AsyncWorkerStatus status);

/// Control-plane snapshot persisted alongside the .tpam model so a resumed
/// run replays bit-identically.  A no-barrier checkpoint is written
/// post-rendezvous: no cycle is in flight and the simulated clock is zero.
/// A barrier checkpoint leaves the run as it is, so it also carries the
/// clock and every late delta still in flight, which restore() re-arms.
struct AsyncCheckpointState {
  struct WorkerState {
    std::uint64_t draws_consumed = 0;  // local epochs taken off the stream
    std::uint32_t status = 0;          // AsyncWorkerStatus
    std::uint32_t crash_count = 0;
    double restart_at = 0.0;  // absolute restart time (kBackoff only)
  };
  /// A barrier cycle that missed its round's deadline and has not landed.
  /// Its fault is the injector's pure answer for (pulled_round, worker).
  struct InFlightCycle {
    std::uint64_t worker = 0;
    std::uint64_t pulled_round = 0;
    std::uint64_t pulled_version = 0;
    double push_at = 0.0;              // absolute arrival time of the push
    std::vector<float> weights;        // local weights after the cycle
    std::vector<float> shared;         // local shared vector after it
    std::vector<float> pulled_shared;  // the master's vector at the pull
  };
  std::uint64_t round = 0;
  std::uint64_t version = 0;
  std::uint64_t seed = 0;  // validated against the config on restore
  std::vector<WorkerState> workers;
  bool barrier = false;  // written by a barrier run
  double clock = 0.0;    // barrier: the simulated clock
  std::vector<InFlightCycle> in_flight;  // barrier: late deltas in flight
};

/// Checksummed binary sidecar IO ("TPAA" magic, folded into the digest).
/// Format version 1 is the no-barrier layout; version 2, written for a
/// barrier run, appends the clock and the cycles in flight.  The writer
/// commits through sparse::commit_file (a failed write throws and keeps the
/// previous sidecar); the reader throws sparse::FormatError on truncation,
/// bad magic, an unknown format version, more cycles in flight than
/// workers, checksum mismatch or trailing bytes.
void write_async_state_file(const std::string& path,
                            const AsyncCheckpointState& state);
AsyncCheckpointState read_async_state_file(const std::string& path);

/// Path of the control-plane sidecar written next to a model checkpoint.
std::string async_state_path(const std::string& model_path);

/// The data-plane share of a simulated worker: its shard, the local view of
/// the ridge problem (carrying the *global* example count so the λN terms
/// match the global objective, Section IV.A), the local solver seeded
/// per-slot, the committed weights its in-flight local work started from,
/// and that work: the cycle's local epochs (a task on the driver's pool, or
/// none when they ran on the calling thread) and their simulated seconds,
/// which only the task writes.
struct WorkerCore {
  data::Dataset shard;
  std::unique_ptr<core::RidgeProblem> problem;
  std::unique_ptr<core::Solver> solver;
  std::vector<float> weights_start;
  util::PoolTask epochs;
  double run_seconds = 0.0;
};

class ClusterSolver {
 public:
  ClusterSolver(const ClusterSolver&) = delete;
  ClusterSolver& operator=(const ClusterSolver&) = delete;

  /// One outer round.  Barrier: applies this round's membership events,
  /// brings back every worker whose backoff has run out, starts a cycle on
  /// every idle member, waits for their pushes (or the grace deadline) and
  /// takes one master step over the batch.  No barrier: the same start,
  /// then the event timeline runs until the master has absorbed one push
  /// attempt per live member, each taking its own master step (cycles
  /// regularly straddle round boundaries, and their local epochs may still
  /// be computing on the pool when it returns).  Returns the simulated time
  /// the round advanced the cluster clock.
  core::EpochReport run_epoch();

  /// Runs the solver through core::run_loop from current_epoch() (nonzero
  /// after a restore), adding γ, the contributor count and every fault
  /// event to the trace and checkpointing on the configured cadence, plus
  /// a final checkpoint so a later --resume continues where the run
  /// stopped (none after a divergence).  Returns with no local epochs
  /// still computing.  Behind run_distributed and run_async.
  core::ConvergenceTrace run(const core::RunOptions& options,
                             const CheckpointConfig& ckpt = {});

  int num_workers() const noexcept { return config_.num_workers; }
  /// Host threads the workers' local epochs run on: the driver's pool, or 1
  /// when they run on the calling thread (one usable CPU, or a problem too
  /// small for core::pool_dispatch() to predict a win).
  int host_threads() const noexcept {
    return pool_ ? static_cast<int>(pool_->size()) : 1;
  }
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

  /// The placement plan (chosen sizes, uniform baseline, predictions);
  /// nullptr when no fleet is configured.
  const placement::PlacementResult* placement_result() const noexcept {
    return placement_result_ ? &*placement_result_ : nullptr;
  }

  /// Rounds completed (monotone; restore() fast-forwards it).
  int current_epoch() const noexcept { return round_; }
  /// γ of the most recent master step (0 before the first one, and for a
  /// barrier round in which no worker's delta landed).
  double last_gamma() const noexcept { return last_gamma_; }
  /// Barrier: workers whose delta landed in the most recent round.  No
  /// barrier: the live member count as of the last round.
  int last_contributors() const noexcept { return last_contributors_; }
  /// Every fault / recovery / membership event since construction.
  const std::vector<core::ClusterEvent>& events() const noexcept {
    return events_;
  }
  /// Master version clock: master steps taken since construction (one per
  /// applied push without a barrier, one per batch with one).
  std::uint64_t version() const noexcept { return version_; }
  /// Attached members (computing or in backoff); the no-barrier γ's
  /// averaging denominator.
  int live_workers() const;
  AsyncWorkerStatus worker_status(int worker) const;
  /// Staleness window in force for the most recent no-barrier push
  /// (resolves the auto window against the live count).  A barrier round
  /// bounds staleness by its grace deadline instead: its late deltas land
  /// at full strength.
  int effective_staleness_window() const;

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

  // ---- Checkpoint / resume ----
  /// Returns the committed global state with epoch = the round counter.
  /// A barrier run is left untouched: its late deltas in flight go into
  /// checkpoint_state() and a restore re-arms them, so checkpointing never
  /// changes the run.  A no-barrier checkpoint is a rendezvous first: it
  /// discards the cycles in flight (rolling their local weights back; their
  /// permutation draws stay consumed) and re-zeroes the simulated clock, so
  /// resumed and straight-through runs agree when both checkpoint on the
  /// same cadence.
  core::SavedModel checkpoint();
  /// Control-plane counterpart of checkpoint(); call after it.
  AsyncCheckpointState checkpoint_state() const;
  /// checkpoint() + model file + sidecar (run loop hook).
  void write_checkpoint_file(const std::string& path);

  /// Restores a checkpoint pair into a freshly constructed solver (same
  /// dataset and config): scatters weights, fast-forwards every local
  /// permutation stream by its recorded draw count, resumes the version
  /// clock, round counter and worker statuses exactly, and re-arms a
  /// barrier run's cycles in flight.  Throws std::invalid_argument on
  /// mismatched formulation / dimensions / lambda / seed / worker count /
  /// schedule, on a worker record or cycle in flight that the run could not
  /// have written, and std::logic_error if rounds have already run.
  void restore(const core::SavedModel& saved,
               const AsyncCheckpointState& state);
  /// Reads `path` and its sidecar, then restore()s.
  void restore_files(const std::string& path);

 protected:
  /// Partitions `global` across the worker slots (one Partition::random
  /// draw from config.seed, or the placement plan's sizes with a fleet, so
  /// both schedules own identical shards), builds every worker's local
  /// solver and calibrates each slot's nominal per-epoch compute time on a
  /// throwaway probe solver.  A DistConfig runs barrier rounds; an
  /// AsyncConfig runs no-barrier rounds.  The dataset must outlive the
  /// solver.  Throws std::invalid_argument on an invalid config: a
  /// non-positive worker count or local_epochs_per_round, more workers than
  /// the partitionable dimension, negative max_restarts, a non-finite
  /// fixed_gamma, a fleet of the wrong size, straggler_grace not > 1, a
  /// negative staleness window or a membership event outside the run.
  ClusterSolver(const data::Dataset& global, const DistConfig& config);
  ClusterSolver(const data::Dataset& global, const AsyncConfig& config);

  WorkerCore& core(std::size_t k) { return *cores_[k]; }
  const WorkerCore& core(std::size_t k) const { return *cores_[k]; }

 private:
  /// The schedule's control plane for one worker slot.
  struct Worker {
    AsyncWorkerStatus status = AsyncWorkerStatus::kComputing;
    int crash_count = 0;
    std::uint64_t draws_consumed = 0;  // local epochs off the perm stream
    double compute_seconds = 0.0;      // calibrated nominal per local epoch

    // Pending event: cycle completion (busy) or crash-backoff restart.
    bool busy = false;
    bool restart_pending = false;
    double event_at = 0.0;
    std::uint64_t push_flow_id = 0;  // flow/delta arrow of the cycle in flight

    // In-flight cycle context, captured at schedule time.
    FaultEvent fault{};
    std::uint64_t pulled_version = 0;
    std::vector<float> pulled_shared;
    int pulled_round = 0;
    bool late = false;  // missed its barrier round's deadline

    // round_fault()'s memo: a crash is consumed the first time it fires in
    // a round so the restart path cannot re-crash on the same draw and
    // spiral to eviction within one round.
    int fault_round = -1;
    FaultEvent round_fault{};
    bool crashed_this_round = false;
  };

  /// One no-barrier cycle's deterministic cost, by term.  nominal()
  /// reproduces the legacy nominal_cycle_seconds sum bit-for-bit (same
  /// addition order); stall is the fault-injected compute inflation.
  struct CycleCost {
    double network = 0.0;
    double host = 0.0;
    double pcie = 0.0;
    double compute = 0.0;
    double stall = 0.0;

    double nominal() const noexcept {
      return network + host + pcie + compute;
    }
    double total() const noexcept { return nominal() + stall; }
  };

  /// What a barrier round waited for, from its scheduled cycles.
  struct BarrierWait {
    double waited = 0.0;        // until the last on-time push, or the grace
    double crit_compute = 0.0;  // the critical push's nominal compute
    double net_round = 0.0;     // tree reduce + broadcast
  };

  ClusterSolver(const data::Dataset& global, const ClusterConfig& config,
                bool barrier, bool comm_overlap);

  /// Worker `k`'s local solver configuration: its fleet device's (or the
  /// homogeneous local_solver), in the global formulation, seeded per slot.
  core::SolverConfig local_config(std::size_t k) const;
  /// Worker `k`'s paper-scale owned coordinates, which its host passes scale
  /// with: the legacy per-worker mean without a fleet (so pre-placement
  /// numbers replay bit-for-bit), its placement-sized share with one.
  double host_coordinates(std::size_t k) const;
  /// The weights the master's shared vector reflects for worker `k`: the
  /// snapshot taken at its pull while a cycle is in flight (schedule-time
  /// numerics run the local epochs eagerly).
  std::span<const float> committed_weights(std::size_t k) const;
  CycleCost cycle_cost(std::size_t k) const;

  void record_event(int worker, core::ClusterEventKind kind);
  void apply_membership(int round);
  /// Counts a crash: evicts past max_restarts, otherwise arms the restart
  /// one nominal cycle later, doubling with every further crash.
  void handle_crash(Worker& worker, int index);
  void restart(int index);
  /// Worker `index`'s fault this round: one injector draw per (round,
  /// worker), and a crash fires only the first time it is asked for.
  FaultEvent round_fault(int index);
  /// The pull: starts a cycle (or consumes a crash) for an idle member —
  /// the worker takes the master's shared vector and starts its local
  /// epochs (on the pool when there is one), and a no-barrier push's
  /// arrival is armed on the timeline.  A barrier push's arrival needs the
  /// epochs' own sim time; wait_for_pushes arms it.
  void schedule_cycle(int index);
  /// Rolls a cycle in flight back to its pull snapshot, once its local
  /// epochs have finished.
  void discard_in_flight(std::size_t index);

  /// Takes worker `index`'s finished cycle off the wire: a dropped or
  /// corrupted delta is discarded (the worker's weights roll back);
  /// otherwise the delta the master received is left in received_.
  bool receive_push(int index);
  /// Forms Δ = local − base in `delta` and sends it worker → master: under
  /// compression it is quantized and checksummed in encoded form — in the
  /// one frame this solver reuses for every delta — and `delta` ends as the
  /// decoded image the master works with (so the invariant holds up to the
  /// fp16 quantization error, DESIGN.md §16); otherwise the raw fp64 delta
  /// travels.  With `corrupt` one bit flips in transit and the master's
  /// checksum rejects the delta.  Returns false for a rejected delta.
  bool send_delta(std::span<const float> local, std::span<const float> base,
                  bool corrupt, std::vector<double>& delta);

  /// γ for the summed move `dshared` of the `movers`' cycles: 0 for no
  /// movers; `fallback` (1/contributors or 1/live) under averaging;
  /// fixed_gamma; or Algorithm 4's line search, exact along the summed
  /// direction against the master's current shared vector.
  double choose_gamma(std::span<const double> dshared,
                      std::span<const std::size_t> movers,
                      double fallback) const;
  /// Applies step·dshared to the master's shared vector and moves every
  /// mover's weights from its cycle start by the same step, so
  /// shared == A·weights is preserved exactly (the invariant is linear in
  /// the delta).
  void apply_step(std::span<const double> dshared,
                  std::span<const std::size_t> movers, double step);

  /// The barrier round's wait, from the cycles scheduled this round: joins
  /// them and arms their pushes' arrivals, then marks the ones that miss
  /// the grace deadline late.
  BarrierWait wait_for_pushes();
  /// Closes a barrier round: the queued pushes, summed in worker-index
  /// order, take one master step, and the round is priced as the
  /// collective.  Returns the round's simulated seconds.
  double close_barrier_round(double round_start, const BarrierWait& wait);
  /// Runs the no-barrier timeline until one push attempt per live member.
  void drain_pushes();
  /// Absorbs one completed no-barrier cycle: transit faults, the staleness
  /// rule, then its own master step.  `segment_seconds` is the
  /// master-critical-path segment this event consumed; it is attributed to
  /// the cycle's cost terms (or to stale overhead) in round_attr_.
  void complete_cycle(int index, double segment_seconds);

  /// Closes round round_: records `attr` as the last round, adds it to the
  /// totals and emits its attribution spans over `round_seconds` of
  /// simulated time on the monotone attribution clock.
  void close_round(const obs::RoundAttribution& attr, double round_seconds);

  /// Throws std::logic_error unless no round has run, and
  /// std::invalid_argument on a mismatched model or sidecar.
  void validate_checkpoint(const core::SavedModel& saved,
                           const AsyncCheckpointState& state) const;

  ClusterConfig config_;
  bool barrier_;
  double straggler_grace_ = 0.0;
  bool comm_overlap_ = false;
  int staleness_window_ = 0;
  StalenessPolicy staleness_policy_ = StalenessPolicy::kDamp;
  std::vector<MembershipEvent> membership_;

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
  std::vector<float> shared_;     // the master's (global) shared vector
  std::vector<double> received_;  // scratch: the latest delta off the wire
  bool gpu_local_ = false;        // any worker stages over PCIe
  int round_ = 0;
  double last_gamma_ = 0.0;
  int last_contributors_ = 0;

  const data::Dataset* global_;
  const char* who_;
  std::int32_t master_track_;
  std::optional<placement::PlacementResult> placement_result_;
  std::vector<std::unique_ptr<WorkerCore>> cores_;
  std::vector<Worker> workers_;
  std::vector<core::ClusterEvent> events_;
  CompressedDelta frame_;  // the encoded delta in transit, reused
  std::uint64_t delta_bytes_on_wire_ = 0;
  std::uint64_t delta_bytes_dense_ = 0;

  double now_ = 0.0;  // simulated cluster clock
  std::uint64_t version_ = 0;
  std::uint64_t pushes_this_round_ = 0;
  std::uint64_t round_updates_ = 0;  // coordinate updates, current round
  obs::RoundAttribution round_attr_{};  // accumulating, no-barrier round
  std::uint64_t flow_seq_ = 0;          // model/delta flow-arrow ids

  obs::RoundAttribution last_attr_{};
  obs::RoundAttribution attr_totals_{};
  std::uint64_t attr_rounds_ = 0;
  // Monotone sim clock for the attribution spans: never re-zeroed by the
  // checkpoint rendezvous, so rounds tile left-to-right.
  double attr_clock_seconds_ = 0.0;

  // Runs the workers' local epochs; null when they run on the calling
  // thread.  The last member, so it is destroyed first: its threads finish
  // every queued task before the state those tasks touch goes away.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace tpa::cluster
