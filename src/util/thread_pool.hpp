// Fixed-size thread pool used by the real-threaded A-SCD / PASSCoDe-Wild
// solvers (one worker per thread), by core::replicated_sweep (as many
// workers as the host runs at once, whatever the lane count — the lanes
// are deterministic, so the pool only decides where they run), by the
// pooled objective/gap passes and by cluster::ClusterSolver, which builds
// its simulated workers and runs their local epochs as PoolTasks (each
// epoch reads and writes only its worker's state, so again the pool only
// decides where it runs).
//
// Wakeup is spin-then-park: a worker that runs out of work spins on an
// atomic pending-task counter for a bounded number of pause iterations
// before blocking on the condition variable.  Solver epochs dispatch many
// short rounds back to back (one per merge interval), and the futex
// sleep/wake round trip of an immediate park costs more than the round
// itself; the bounded spin lets a worker catch the next round's tasks
// while still hot, and parks (so the pool never burns CPU while idle) when
// no work arrives within the budget.  wait_idle has the matching caller
// side: a bounded spin on the in-flight counter, then the condition
// variable.  When the process may use one CPU only (a single-core host, or
// a CPU mask such as `taskset -c 3`) the spin budget defaults to zero —
// spinning there only steals cycles from the one core that could be doing
// the work.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tpa::util {

/// CPUs the calling thread may run on: the count of its affinity mask
/// (sched_getaffinity), or std::thread::hardware_concurrency() where the
/// mask cannot be read.  At least 1.
std::size_t usable_cpus() noexcept;

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).  `spin_iterations` bounds
  /// the pause-loop a hungry worker (or wait_idle caller) runs before
  /// parking on the condition variable.
  explicit ThreadPool(std::size_t num_threads,
                      std::size_t spin_iterations = default_spin_iterations());
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  std::size_t size() const noexcept { return workers_.size(); }
  std::size_t spin_iterations() const noexcept { return spin_iterations_; }

  /// Spin budget picked for this process: zero when usable_cpus() is 1 (a
  /// spinner would preempt the worker it waits for), a few thousand pause
  /// iterations (~ the cost of one futex round trip) otherwise.
  static std::size_t default_spin_iterations() noexcept;

  /// Enqueues a task.  Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.  All memory
  /// effects of the tasks are visible once it returns.
  void wait_idle();

  /// Runs fn(i) for i in [0, count) across the pool and waits.
  ///
  /// Indices are scheduled in contiguous chunks of `grain` so each enqueued
  /// task (and its mutex round-trip) amortises over many iterations.  A grain
  /// of 0 picks ceil(count / workers) — one task per worker — which is the
  /// right default for uniform per-index cost; pass a smaller grain for
  /// skewed workloads, or 1 to recover the legacy task-per-index behaviour.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 0);

  /// Chunked variant: runs fn(begin, end) over disjoint ranges covering
  /// [0, count) and waits.  Grain semantics as above.  This is the zero-per-
  /// index-overhead building block `parallel_for` wraps.
  void parallel_for_chunks(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& fn,
      std::size_t grain = 0);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  // pending_ counts queued-but-unclaimed tasks; in_flight_ counts queued +
  // executing.  Both are written under no lock so spinners can watch them
  // with plain atomic loads; the queue itself is still mutex-protected.
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<bool> shutting_down_{false};
  std::size_t spin_iterations_;
};

/// One task at a time on a ThreadPool, joined by its owner where the
/// task's results are read next.  join() claims a task that no pool worker
/// has picked up yet and runs it on the calling thread; otherwise it spins
/// for the pool's budget on an atomic state word and then waits on it
/// (std::atomic::wait), so a join neither parks at once nor burns a core
/// for long.  A task's exception is rethrown by join(), on the joining
/// thread.  The pool holds a pointer to this object until its queued
/// closure has run, so the pool must be destroyed (or drained) before it.
class PoolTask {
 public:
  PoolTask() = default;
  PoolTask(const PoolTask&) = delete;
  PoolTask& operator=(const PoolTask&) = delete;

  /// Queues `fn` on `pool`.  The task started before must have been
  /// joined.
  void start(ThreadPool& pool, std::function<void()> fn);

  /// Returns once the task started last has run, and rethrows its
  /// exception.  A no-op when nothing was started since the last join.
  void join();

 private:
  enum State : std::uint32_t { kIdle, kQueued, kRunning, kDone };

  /// Runs fn_ if this call claims the queued task.  Any claimer may run
  /// it: a closure the pool dequeues late may find the next task queued
  /// and run that one, and that task's own closure then finds nothing.
  void run_if_queued() noexcept;

  std::atomic<std::uint32_t> state_{kIdle};
  std::function<void()> fn_;
  std::exception_ptr error_;
  std::size_t spin_iterations_ = 0;
};

}  // namespace tpa::util
