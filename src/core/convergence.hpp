// Convergence tracing: the (epoch, duality gap, time) series behind every
// figure of the paper, with time-to-target queries for the scaling plots
// (Figs. 6 and 8).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/solver.hpp"

namespace tpa::core {

struct TracePoint {
  int epoch = 0;             // epochs completed when recorded
  double gap = 0.0;          // duality gap
  double sim_seconds = 0.0;  // cumulative simulated time
  double wall_seconds = 0.0; // cumulative measured time
  double gamma = 0.0;        // aggregation parameter (distributed runs)
  int contributors = 0;      // workers whose delta landed (distributed runs)
};

/// What happened to a worker during a distributed run.  Recorded on the
/// trace so figure harnesses and tests can correlate gap excursions with the
/// fault schedule (kCheckpoint marks master-side checkpoint writes).
enum class ClusterEventKind {
  kCrash,           // worker lost its in-progress epoch
  kRestart,         // worker rejoined after crash backoff
  kEvict,           // worker permanently removed; coordinates frozen
  kDeadlineMiss,    // worker missed the straggler deadline this epoch
  kLateDelta,       // a straggler's stale delta was finally incorporated
  kDeltaDropped,    // worker's delta lost in transit (excluded this epoch)
  kDeltaCorrupted,  // worker's delta failed checksum (excluded this epoch)
  kCheckpoint,      // master wrote an epoch checkpoint
  kJoin,            // elastic member joined; cold-started from master state
  kLeave,           // elastic member left; partition frozen until a join
  kStaleDamped,     // async delta beyond the staleness window, under-relaxed
  kStaleRejected,   // async delta beyond the staleness window, discarded
};

/// Number of ClusterEventKind values.  Keep in sync with the enum above: the
/// exhaustive naming test iterates [0, kClusterEventKindCount) so a new kind
/// cannot ship without a cluster_event_name entry.
inline constexpr std::size_t kClusterEventKindCount =
    static_cast<std::size_t>(ClusterEventKind::kStaleRejected) + 1;

const char* cluster_event_name(ClusterEventKind kind);

struct ClusterEvent {
  int epoch = 0;
  int worker = -1;  // -1 for master-side events (checkpoints)
  ClusterEventKind kind = ClusterEventKind::kCrash;
};

class ConvergenceTrace {
 public:
  void add(TracePoint point) { points_.push_back(point); }
  void add_event(ClusterEvent event) { events_.push_back(event); }

  const std::vector<TracePoint>& points() const noexcept { return points_; }
  bool empty() const noexcept { return points_.empty(); }

  const std::vector<ClusterEvent>& events() const noexcept { return events_; }
  std::size_t count_events(ClusterEventKind kind) const;

  double final_gap() const;

  /// First cumulative simulated time at which gap <= eps, if reached.
  std::optional<double> sim_time_to_gap(double eps) const;
  /// First epoch count at which gap <= eps, if reached.
  std::optional<int> epochs_to_gap(double eps) const;

  /// CSV export for gap-vs-time figures: a fixed header row
  /// "epoch,gap,sim_seconds,wall_seconds,gamma,contributors" followed by one
  /// row per trace point (cluster events are not representable in CSV and
  /// are omitted — use JSONL when the fault schedule matters).
  void write_csv(std::ostream& out) const;
  /// JSONL export: one {"type":"point",...} object per trace point followed
  /// by one {"type":"event",...} object per cluster event.
  void write_jsonl(std::ostream& out) const;
  /// File-opening wrappers; throw std::runtime_error when `path` cannot be
  /// opened for writing.
  void write_csv_file(const std::string& path) const;
  void write_jsonl_file(const std::string& path) const;

 private:
  std::vector<TracePoint> points_;
  std::vector<ClusterEvent> events_;
};

struct RunOptions {
  int max_epochs = 100;
  /// Stop early once the gap reaches this value (0 disables).
  double target_gap = 0.0;
  /// Record the gap every `record_interval` epochs (gap evaluation costs one
  /// matrix pass; it is measurement, not training, and is excluded from the
  /// reported times, as in the paper).
  int record_interval = 1;
  /// Evaluate the gap only every `gap_every` epochs (0 falls back to
  /// `record_interval`).  Amortises the per-evaluation matrix pass over
  /// several training epochs; the final epoch is always evaluated, so the
  /// final gap matches an every-epoch run exactly.  With target_gap set,
  /// early stopping can trigger only at evaluated epochs — a run may
  /// therefore overshoot by up to gap_every − 1 epochs.
  int gap_every = 0;
  /// Workers used for each gap evaluation (1 = serial).  The parallel value
  /// is deterministic for any thread count but may differ from the serial
  /// one by reduction reassociation (DESIGN.md §9).  run_solver consults
  /// core::pool_dispatch() before building the pool: when the problem is too
  /// small for the requested workers to beat the serial pass (or the host
  /// lacks the cores), the evaluation runs serially — requesting threads is
  /// a ceiling, not a command.
  int gap_threads = 1;
  /// Replica-merge interval for solvers with a replicated shared vector
  /// (updates per worker between merges): 0 keeps the solver's automatic
  /// choice; forwarded via Solver::set_merge_every otherwise (no-op for
  /// non-replicated solvers).  Negative values throw.  DESIGN.md §11.
  int merge_every = 0;
  /// Include the solver's one-time setup (GPU upload) in cumulative time.
  bool include_setup_time = true;
};

/// The epoch stride between gap evaluations implied by `options`.
int effective_gap_interval(const RunOptions& options);

/// Drives `solver` for up to max_epochs, recording the duality gap.
ConvergenceTrace run_solver(Solver& solver, const RidgeProblem& problem,
                            const RunOptions& options);

}  // namespace tpa::core
