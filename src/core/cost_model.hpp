// CPU cost model and the paper-scale timing workload.
//
// Simulated runtimes let the bench harness reproduce the *time axis* of the
// paper's figures without the authors' hardware.  The CPU model charges a
// constant per stored matrix entry visited (SCD's epoch cost is one fused
// multiply-add plus an irregular load per nonzero, twice), calibrated so a
// paper-scale webspam epoch costs ≈2.5 s, consistent with Fig. 1b.  The
// multi-threaded speed-up factors are the paper's own measurements (Sect.
// III.D): ≈2x for atomic A-SCD (no hardware float atomics on the test Xeon)
// and ≈4x for PASSCoDe-Wild at 16 threads, interpolated logarithmically for
// other thread counts.
#pragma once

#include <cstdint>

#include "core/formulation.hpp"
#include "data/dataset.hpp"

namespace tpa::core {

/// Per-epoch work figures used by the timing models.  When the dataset
/// carries PaperScale statistics, the workload is evaluated at paper scale
/// (so simulated times match the real dataset the generator stands in for);
/// otherwise the actual matrix dimensions are used.  DESIGN.md §5.
struct TimingWorkload {
  std::uint64_t nnz = 0;
  std::uint64_t num_coordinates = 0;
  std::uint64_t shared_dim = 0;

  static TimingWorkload for_dataset(const data::Dataset& dataset,
                                    Formulation f);
};

struct CpuCostModel {
  /// Cost per stored entry when the shared vector is cache-resident.
  double seconds_per_nnz = 2.8e-9;
  /// Cost per stored entry when the shared vector vastly exceeds the CPU's
  /// last-level cache, as for criteo's 75M-feature dual (w̄ is 300 MB):
  /// every shared-vector access is then a DRAM-latency-bound miss with
  /// limited memory-level parallelism.  This latency wall is exactly what
  /// the GPU's parallelism hides, and it is why the paper's criteo speed-up
  /// (40x) exceeds its webspam ceiling (35x).
  double seconds_per_nnz_uncached = 25e-9;
  std::size_t llc_bytes = 25ULL << 20;  // Xeon-class last-level cache
  double atomic_speedup_at_16 = 2.0;
  double wild_speedup_at_16 = 4.0;

  /// Speed-up of the replicated (SySCD-style) implementation at 16 threads:
  /// plain stores into private replicas scale near-linearly, paying only the
  /// periodic merge, unlike the atomic (2x) and wild (4x) ceilings.
  double replicated_speedup_at_16 = 13.0;

  /// Sequential SCD epoch time (picks the cached or uncached per-entry cost
  /// from the workload's shared-vector size).
  double epoch_seconds_sequential(const TimingWorkload& w) const noexcept;

  /// Speed-up of the atomic asynchronous implementation at `threads`.
  double atomic_speedup(int threads) const noexcept;
  /// Speed-up of the wild asynchronous implementation at `threads`.
  double wild_speedup(int threads) const noexcept;
  /// Speed-up of the replicated implementation at `threads` (linear
  /// interpolation to the 16-thread figure — replication removes the
  /// write-back serialisation that makes the other two curves logarithmic).
  double replicated_speedup(int threads) const noexcept;

  /// Host-side vector arithmetic (deltas, scalar reductions) per element.
  double seconds_per_vector_element = 1.0e-9;
};

/// Wall-clock dispatch model for the *host* thread pool: decides when pooled
/// execution of a parallelisable pass beats running it serially on the
/// calling thread.  Unlike CpuCostModel — which prices the paper's hardware
/// for the simulated time axis — this model prices this machine: the
/// measured wake/join overhead of a pool round trip against the pass's
/// entry count, and the host's real core count.  Requesting N pool workers
/// buys at most hardware_concurrency-way progress, so on a single-core host
/// the crossover is infinite and every pass runs serially — the structural
/// fix for pooled paths losing to serial on small problems.
struct PoolDispatchModel {
  /// Fixed cost of one parallel_for_chunks round trip (wake + join).
  double dispatch_seconds = 20e-6;
  /// Marginal cost per enqueued chunk (queue push + claim).
  double per_chunk_seconds = 2e-6;
  /// Serial streaming throughput of the sparse passes on the host.
  double seconds_per_entry = 2.0e-9;
  /// Hardware threads to assume; 0 = std::thread::hardware_concurrency().
  /// Tests and benches override this to force either path.
  int hardware_threads = 0;

  /// Concurrency actually attainable for `requested` pool workers.
  int effective_threads(int requested) const noexcept;

  /// True when dispatching `work_entries` entries across `threads` pool
  /// workers is predicted to beat the serial pass.
  bool use_pool(std::uint64_t work_entries, int threads) const noexcept;

  /// The worker count a driver should actually use: `requested` when the
  /// pool is predicted to win on this problem, else 1 (serial).
  int dispatch_threads(std::uint64_t work_entries,
                       int requested) const noexcept;
};

/// Process-wide dispatch model consulted by run_solver, ThreadedScdSolver
/// and RidgeProblem's pooled passes.  Settable for tests and calibration.
const PoolDispatchModel& pool_dispatch() noexcept;
void set_pool_dispatch(const PoolDispatchModel& model) noexcept;

/// Cost-optimal updates per thread between replica merges: the largest
/// staleness that keeps merge traffic — (3·threads+2) dense passes over
/// `shared_dim` per merge — under ~10% of the update traffic between merges
/// (2·nnz/num_coordinates entries per update).  Clamped to [1, 2^20].  This
/// is a pure throughput figure; it ignores convergence.  The solvers use
/// replica_auto_interval, which also caps staleness.
int replica_merge_interval(std::uint64_t nnz, std::uint64_t num_coordinates,
                           std::uint64_t shared_dim, int threads) noexcept;

/// Largest merge interval whose *concurrent staleness* — the
/// (threads−1)·interval updates by other workers that a worker cannot see —
/// stays within the empirically safe budget of ~1/64 of the coordinates.
/// Beyond roughly 3% the bulk-synchronous merge over-applies correlated
/// deltas and SCD diverges (DESIGN.md §11); 1/64 keeps a 2x margin.
int replica_safe_interval(std::uint64_t num_coordinates, int threads) noexcept;

/// Returns `merge_every`, the updates per worker between replica merges
/// (0 = replica_auto_interval), after rejecting a negative value: throws
/// std::invalid_argument naming `who` and merge_every.
int checked_merge_every(int merge_every, const char* who);

/// Updates per worker between merges when RunOptions::merge_every is 0
/// (auto): the cost-optimal interval, capped at the convergence-safe one.
/// Callers additionally clamp to their slice length.
int replica_auto_interval(std::uint64_t nnz, std::uint64_t num_coordinates,
                          std::uint64_t shared_dim, int threads) noexcept;

/// Under-relaxation factor θ ∈ (0, 1] applied to every update delta in the
/// replicated paths.  θ = 1 whenever the concurrent staleness
/// (threads−1)·interval is within the safe budget — so auto-interval runs,
/// single-worker runs, and merge_every=1 equivalence gates are untouched —
/// and scales as budget/staleness beyond it, keeping the aggregate parallel
/// step mass at the stable level instead of letting a user-forced large
/// interval diverge.  The price of a large interval is then slower progress
/// per epoch, never a blow-up.
double replica_damping(std::uint64_t num_coordinates, int threads,
                       int interval) noexcept;

/// Bounded-staleness window τ for the asynchronous cluster (DESIGN.md §13):
/// the replica merge-interval math one level up.  A delta pushed by one of
/// `live_workers` no-barrier workers is computed against a pull that is, in
/// steady state, K−1 master versions old (every peer pushes once per cycle),
/// exactly the staleness a bulk-synchronous round imposes.  The auto window
/// is twice that — the same 2x margin replica_safe_interval keeps — so
/// healthy async runs are never damped and only genuine laggards (stalled or
/// recovering workers) trip the rule.  Clamped to >= 1.
int cluster_staleness_window(int live_workers) noexcept;

/// Under-relaxation θ ∈ (0, 1] for a delta that is `staleness` master
/// versions old under window τ = `window`: θ = 1 within the window and
/// τ/staleness beyond it — replica_damping's budget/concurrent rule with the
/// version clock as the staleness measure.  The total step mass a laggard
/// can inject is then capped at the window, never a blow-up, matching the
/// PASSCoDe guarantee that coordinate descent tolerates *bounded* delay.
double cluster_staleness_damping(std::uint64_t staleness,
                                 int window) noexcept;

}  // namespace tpa::core
