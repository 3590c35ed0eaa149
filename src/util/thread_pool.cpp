#include "util/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tpa::util {
namespace {

// One iteration of a polite busy-wait: de-pipelines the spin loop so a
// hyperthread sibling (or, under TSan, the scheduler) gets the core.
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace

std::size_t usable_cpus() noexcept {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t ThreadPool::default_spin_iterations() noexcept {
  // A futex sleep + wake costs a few microseconds; ~2048 pause iterations
  // covers that window.  With one usable CPU the spinner and the thread it
  // waits for share the core, so any spin is pure loss.
  return usable_cpus() > 1 ? 2048 : 0;
}

ThreadPool::ThreadPool(std::size_t num_threads, std::size_t spin_iterations)
    : spin_iterations_(spin_iterations) {
  const std::size_t count = std::max<std::size_t>(1, num_threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_.store(true, std::memory_order_relaxed);
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    pending_.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  // Spin first: a parallel_for round on a warm pool finishes in the time a
  // futex sleep would take to even park.  The acquire load pairs with the
  // workers' release decrement, so task side effects are visible on return.
  for (std::size_t spin = 0; spin < spin_iterations_; ++spin) {
    if (in_flight_.load(std::memory_order_acquire) == 0) return;
    cpu_pause();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  parallel_for_chunks(
      count,
      [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      grain);
}

void ThreadPool::parallel_for_chunks(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (count == 0) return;
  if (grain == 0) grain = (count + size() - 1) / size();
  grain = std::max<std::size_t>(1, grain);
  if (grain >= count) {
    // One chunk: run inline, skipping the queue entirely.
    fn(0, count);
    return;
  }
  for (std::size_t begin = 0; begin < count; begin += grain) {
    const std::size_t end = std::min(begin + grain, count);
    submit([&fn, begin, end] { fn(begin, end); });
  }
  wait_idle();
}

void ThreadPool::worker_loop() {
  for (;;) {
    // Bounded spin before parking: watch the pending counter with plain
    // atomic loads — no mutex traffic — and fall through to the condition
    // variable only when no work shows up within the budget.
    for (std::size_t spin = 0; spin < spin_iterations_; ++spin) {
      if (pending_.load(std::memory_order_relaxed) > 0 ||
          shutting_down_.load(std::memory_order_relaxed)) {
        break;
      }
      cpu_pause();
    }
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] {
        return shutting_down_.load(std::memory_order_relaxed) ||
               !queue_.empty();
      });
      if (queue_.empty()) {
        if (shutting_down_.load(std::memory_order_relaxed)) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
    }
    task();
    // Release pairs with wait_idle's acquire.  The last finisher takes the
    // mutex before notifying so a waiter that just checked the predicate
    // and is entering wait cannot miss the wake.
    if (in_flight_.fetch_sub(1, std::memory_order_release) == 1) {
      const std::lock_guard<std::mutex> lock(mutex_);
      all_idle_.notify_all();
    }
  }
}

void PoolTask::start(ThreadPool& pool, std::function<void()> fn) {
  if (state_.load(std::memory_order_acquire) != kIdle) {
    throw std::logic_error("PoolTask::start: the previous task is not joined");
  }
  fn_ = std::move(fn);
  spin_iterations_ = pool.spin_iterations();
  // Release: whoever claims the task sees fn_ and everything the owner
  // wrote before starting it.
  state_.store(kQueued, std::memory_order_release);
  pool.submit([this] { run_if_queued(); });
}

void PoolTask::run_if_queued() noexcept {
  std::uint32_t expected = kQueued;
  if (!state_.compare_exchange_strong(expected, kRunning,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
    return;
  }
  try {
    fn_();
  } catch (...) {
    error_ = std::current_exception();
  }
  state_.store(kDone, std::memory_order_release);
  state_.notify_one();
}

void PoolTask::join() {
  if (state_.load(std::memory_order_acquire) == kIdle) return;
  run_if_queued();
  for (std::size_t spin = 0; spin < spin_iterations_; ++spin) {
    if (state_.load(std::memory_order_acquire) == kDone) break;
    cpu_pause();
  }
  for (std::uint32_t state = state_.load(std::memory_order_acquire);
       state != kDone; state = state_.load(std::memory_order_acquire)) {
    state_.wait(state, std::memory_order_acquire);
  }
  fn_ = nullptr;
  state_.store(kIdle, std::memory_order_relaxed);
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

}  // namespace tpa::util
