// Asynchronous bounded-staleness distributed SCD with elastic membership
// (DESIGN.md §13).
//
// The synchronous driver (dist_solver.hpp) is paper Algorithm 3: a global
// barrier every round, so one slow worker stalls all K.  Following
// Hybrid-DCA's double asynchrony and PASSCoDe's delay tolerance (PAPERS.md),
// this driver removes the barrier: each worker runs pull → local epochs →
// push cycles against the master at its own pace, and the master applies
// every delta the moment it arrives.  Determinism is preserved by running
// the cluster through a simulated event timeline: per-cycle durations come
// from the deterministic timing models (local solver sim time, NetworkModel
// point-to-point transfers, PCIe for GPU locals), so the interleaving of
// pushes — and therefore the numerics — is a pure function of (config,
// seeds), replayable bit-for-bit.
//
// Staleness control: the master keeps a version clock (one tick per applied
// delta) and stamps every pull.  A delta whose pull is `s` versions old is
// applied at full strength while s ≤ τ and beyond that is either damped by
// θ = τ/s or rejected outright — core::cluster_staleness_damping, the
// replica-set merge-interval math lifted to cluster scope.  γ is rescaled to
// the live member count, so the global invariant shared == A·weights is
// preserved exactly by linearity, no matter how stale or sparse the pushes.
//
// Elastic membership: scripted leave/join events detach and revive worker
// slots mid-run.  A leaver's partition freezes (its committed weights stay
// in the master's assembled model); a joiner adopts the frozen partition and
// cold-starts from the master's current vector.  Crash faults reuse the
// PR 2 machinery — exponential backoff, eviction past max_restarts — with
// eviction flowing into the same detached state a scripted leave produces,
// so a later join can revive an evicted slot (the elastic recovery the sync
// driver cannot express).
//
// Each absorbed push is the master step the sync driver runs once per round
// (cluster_solver.hpp); this driver adds only its schedule: the event loop,
// the staleness window, membership and the .async sidecar.
//
// Checkpoint/resume: checkpoint() is a rendezvous — in-flight cycles are
// discarded (their permutation draws stay consumed, so streams remain
// aligned) and the simulated clock is re-zeroed — and the solver's control
// state (round, version clock, per-worker stream positions and statuses) is
// persisted in a checksummed sidecar next to the .tpam model.  restore()
// rebuilds exactly the post-rendezvous state, so a resumed run replays the
// original bit-for-bit, faults and membership included.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster_solver.hpp"

namespace tpa::cluster {

/// What the master does with a delta staler than the window τ.
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

struct AsyncConfig : ClusterConfig {
  AsyncConfig() = default;
  explicit AsyncConfig(const ClusterConfig& shared)
      : ClusterConfig(shared) {}

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
/// async run replays bit-identically (written post-rendezvous: no cycle is
/// in flight and the simulated clock is zero).
struct AsyncCheckpointState {
  struct WorkerState {
    std::uint64_t draws_consumed = 0;  // local epochs taken off the stream
    std::uint32_t status = 0;          // AsyncWorkerStatus
    std::uint32_t crash_count = 0;
    double restart_at = 0.0;  // absolute restart time (kBackoff only)
  };
  std::uint64_t round = 0;
  std::uint64_t version = 0;
  std::uint64_t seed = 0;  // validated against the config on restore
  std::vector<WorkerState> workers;
};

/// Checksummed binary sidecar IO ("TPAA" magic, folded into the digest).
/// The writer commits through sparse::commit_file (a failed write throws
/// and keeps the previous sidecar); the reader throws sparse::FormatError on
/// truncation, bad magic, an unknown format version, checksum mismatch or
/// trailing bytes.
void write_async_state_file(const std::string& path,
                            const AsyncCheckpointState& state);
AsyncCheckpointState read_async_state_file(const std::string& path);

/// Path of the control-plane sidecar written next to a model checkpoint.
std::string async_state_path(const std::string& model_path);

class AsyncSolver : public ClusterSolver {
 public:
  /// Partitions `global` across the worker slots and builds their local
  /// solvers (shared plumbing with DistributedSolver: same Partition::random
  /// draw from `seed`, same per-slot solver seeding).  The async driver has
  /// no reduce to overlap (pushes are already barrier-free point-to-point),
  /// so the placement plan never prices comm/compute overlap.  The dataset
  /// must outlive the solver.  Throws std::invalid_argument on invalid
  /// worker / epoch / staleness / membership configuration.
  AsyncSolver(const data::Dataset& global, const AsyncConfig& config);

  /// One outer round: applies this round's membership events, then advances
  /// the event timeline until the master has absorbed one push attempt per
  /// live member (attached workers keep cycling without any barrier —
  /// cycles regularly straddle round boundaries; the round is purely the
  /// observation/checkpoint cadence).  Returns the simulated time the round
  /// advanced the cluster clock.
  core::EpochReport run_epoch() override;

  // ---- Async observability ----
  /// Master version clock: applied deltas since construction/restore.
  std::uint64_t version() const noexcept { return version_; }
  /// Attached members (computing or in backoff); γ's averaging denominator.
  int live_workers() const;
  AsyncWorkerStatus worker_status(int worker) const;
  /// Staleness window in force for the most recent push (resolves the
  /// auto window against the live count).
  int effective_staleness_window() const;

  // ---- Checkpoint / resume ----
  /// Rendezvous + snapshot: discards in-flight cycles (rolling their local
  /// weights back; their permutation draws stay consumed), re-zeroes the
  /// simulated clock, and returns the committed global state with
  /// epoch = the round counter.  Mutating by design: a checkpointed run's
  /// continuation is exactly what a restore of this checkpoint replays, so
  /// resumed and straight-through runs agree only when both checkpoint on
  /// the same cadence (the roundtrip test and the async_drill CI job do).
  core::SavedModel checkpoint();
  /// Control-plane counterpart of checkpoint(); call after it.
  AsyncCheckpointState checkpoint_state() const;
  /// checkpoint() + model file + sidecar (run loop hook).
  void write_checkpoint_file(const std::string& path) override;

  /// Restores a checkpoint pair into a freshly constructed solver (same
  /// dataset and config): scatters weights, fast-forwards every local
  /// permutation stream by its recorded draw count, and resumes the version
  /// clock, round counter and worker statuses exactly.  Throws
  /// std::invalid_argument on mismatched formulation / dimensions / lambda /
  /// seed / worker count and std::logic_error if rounds have already run.
  void restore(const core::SavedModel& saved,
               const AsyncCheckpointState& state);
  /// Reads `path` and its sidecar, then restore()s.
  void restore_files(const std::string& path);

 protected:
  /// A busy worker's solver state is mid-cycle (schedule-time numerics run
  /// the local epochs eagerly); its committed weights — the ones the
  /// master's shared vector reflects — are the snapshot taken at its pull.
  std::span<const float> committed_weights(std::size_t k) const override;

 private:
  struct Worker {
    AsyncWorkerStatus status = AsyncWorkerStatus::kComputing;
    int crash_count = 0;
    std::uint64_t draws_consumed = 0;  // local epochs off the perm stream
    double compute_seconds = 0.0;      // calibrated nominal per local epoch

    // Pending event: cycle completion (busy) or crash-backoff restart.
    bool busy = false;
    bool restart_pending = false;
    double event_at = 0.0;
    std::uint64_t push_flow_id = 0;  // flow/push arrow of the cycle in flight

    // In-flight cycle context, captured at schedule time.
    FaultEvent fault{};
    std::uint64_t pulled_version = 0;
    std::vector<float> pulled_shared;

    // One fault draw per (round, worker): a crash is consumed the first
    // time it fires in a round so the restart path cannot re-crash on the
    // same draw and spiral to eviction within one round.
    int fault_round = -1;
    FaultEvent round_fault{};
    bool crashed_this_round = false;
  };

  /// One cycle's deterministic cost, by term.  nominal() reproduces the
  /// legacy nominal_cycle_seconds sum bit-for-bit (same addition order);
  /// stall is the fault-injected compute inflation.
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

  void apply_membership(int round);
  void handle_crash(Worker& worker, int index);
  /// Starts a pull→compute→push cycle (or consumes a crash) for an idle
  /// computing worker; arms its completion/restart event.
  void schedule_cycle(int index);
  /// Absorbs a completed cycle on the master: transit faults, staleness
  /// rule, then the shared master step.  `segment_seconds` is the
  /// master-critical-path segment this event consumed; it is attributed to
  /// the cycle's cost terms (or to stale overhead) in round_attr_.
  void complete_cycle(int index, double segment_seconds);
  void discard_in_flight(std::size_t index);
  CycleCost cycle_cost(std::size_t k) const;

  int staleness_window_;
  StalenessPolicy staleness_policy_;
  std::vector<MembershipEvent> membership_;
  std::vector<Worker> workers_;

  double now_ = 0.0;        // simulated cluster clock
  std::uint64_t version_ = 0;
  std::uint64_t pushes_this_round_ = 0;
  std::uint64_t applied_updates_ = 0;  // coordinate updates, current round
  obs::RoundAttribution round_attr_{};  // accumulating, current round
  std::uint64_t flow_seq_ = 0;  // pull/push flow-arrow ids
};

/// Runs an AsyncSolver through ClusterSolver::run (core::run_loop), from
/// its current round (nonzero after a restore).
core::ConvergenceTrace run_async(AsyncSolver& solver,
                                 const core::RunOptions& options,
                                 const CheckpointConfig& ckpt = {});

}  // namespace tpa::cluster
