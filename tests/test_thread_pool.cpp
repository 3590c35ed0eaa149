#include "util/thread_pool.hpp"

#include <sched.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"

namespace tpa::util {
namespace {

TEST(ThreadPool, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCount) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ThreadPool, TasksCanSubmitResultsInOrderIndependentWay) {
  ThreadPool pool(4);
  std::vector<int> values(64, 0);
  pool.parallel_for(values.size(), [&values](std::size_t i) {
    values[i] = static_cast<int>(i) * 2;
  });
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], static_cast<int>(i) * 2);
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexForAnyGrain) {
  ThreadPool pool(4);
  for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(233);
    pool.parallel_for(
        hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); }, grain);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "grain " << grain;
  }
}

TEST(ThreadPool, ParallelForChunksPartitionsExactly) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_chunks(
      100,
      [&](std::size_t begin, std::size_t end) {
        const std::lock_guard<std::mutex> lock(mutex);
        chunks.emplace_back(begin, end);
      },
      32);
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 4u);  // ceil(100 / 32)
  std::size_t expected_begin = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GT(end, begin);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, 100u);
}

TEST(ThreadPool, ParallelForChunksZeroCountAndSingleChunk) {
  ThreadPool pool(2);
  pool.parallel_for_chunks(0, [](std::size_t, std::size_t) { FAIL(); });
  int calls = 0;
  // grain >= count runs as one inline chunk.
  pool.parallel_for_chunks(
      5,
      [&calls](std::size_t begin, std::size_t end) {
        ++calls;
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 5u);
      },
      8);
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, SurvivesManyWaves) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, DefaultSpinBudgetMatchesHost) {
  // Zero with one usable CPU (a spinner would preempt the one worker),
  // a bounded nonzero budget everywhere else.
  const std::size_t budget = ThreadPool::default_spin_iterations();
  if (usable_cpus() > 1) {
    EXPECT_GT(budget, 0u);
    EXPECT_LE(budget, 1u << 20);
  } else {
    EXPECT_EQ(budget, 0u);
  }
  ThreadPool pool(2);
  EXPECT_EQ(pool.spin_iterations(), budget);
}

// The spin budget and the pool-dispatch cap count the CPUs this thread may
// run on, not the host's: under a one-CPU mask (as `taskset -c 3` sets) a
// pool must not spin and a pooled pass must plan one worker.
TEST(ThreadPool, OneCpuMaskMeansNoSpinAndOneEffectiveThread) {
  cpu_set_t saved{};
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t cpus = usable_cpus();
  const std::size_t spin = ThreadPool::default_spin_iterations();
  const int effective = core::PoolDispatchModel{}.effective_threads(4);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);

  EXPECT_EQ(cpus, 1u);
  EXPECT_EQ(spin, 0u);
  EXPECT_EQ(effective, 1);
  EXPECT_EQ(usable_cpus(), static_cast<std::size_t>(CPU_COUNT(&saved)));
}

// The spin budget is a latency knob, never a correctness knob: every task
// still runs exactly once and wait_idle still observes all side effects,
// whether workers park immediately (0) or spin long past the default.
TEST(ThreadPool, CorrectForAnySpinBudget) {
  for (const std::size_t spin : {std::size_t{0}, std::size_t{64},
                                 std::size_t{100'000}}) {
    ThreadPool pool(3, spin);
    EXPECT_EQ(pool.spin_iterations(), spin);
    std::atomic<int> counter{0};
    for (int wave = 0; wave < 10; ++wave) {
      std::vector<std::atomic<int>> hits(97);
      pool.parallel_for(hits.size(),
                        [&hits](std::size_t i) { hits[i].fetch_add(1); });
      for (const auto& h : hits) {
        ASSERT_EQ(h.load(), 1) << "spin " << spin;
      }
      pool.submit([&counter] { counter.fetch_add(1); });
      pool.wait_idle();
    }
    EXPECT_EQ(counter.load(), 10) << "spin " << spin;
  }
}

// Spinners park when no work arrives: a pool left idle must not prevent a
// timely destructor join even with a huge spin budget (the shutdown flag is
// part of the spin predicate).
TEST(ThreadPool, ShutsDownPromptlyWithLargeSpinBudget) {
  ThreadPool pool(4, 1u << 22);
  pool.parallel_for(64, [](std::size_t) {});
  // Destructor joins here; a hang fails via the test timeout.
}

// ---- PoolTask --------------------------------------------------------------

TEST(PoolTask, JoinWithoutStartReturns) {
  PoolTask task;
  task.join();
  task.join();
}

// The only pool worker is held busy, so the task is still queued when the
// owner joins: the join claims it and runs it on the joining thread, and
// the closure the worker dequeues later finds nothing to run.
TEST(PoolTask, JoinRunsAnUnclaimedTaskInline) {
  PoolTask task;  // outlives the pool's queue, as the contract asks
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  int runs = 0;
  std::thread::id ran_on;
  task.start(pool, [&] {
    ++runs;
    ran_on = std::this_thread::get_id();
  });
  task.join();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  release.store(true);
  pool.wait_idle();
  EXPECT_EQ(runs, 1);
}

// A task a pool worker is running is waited for, not run again.
TEST(PoolTask, JoinWaitsForARunningTask) {
  PoolTask task;
  ThreadPool pool(1, /*spin_iterations=*/0);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  int runs = 0;
  task.start(pool, [&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
    ++runs;
  });
  while (!started.load()) std::this_thread::yield();
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  });
  task.join();
  releaser.join();
  EXPECT_EQ(runs, 1);
}

TEST(PoolTask, JoinRethrowsTheTaskException) {
  PoolTask task;
  ThreadPool pool(2);
  task.start(pool, [] { throw std::runtime_error("local epoch failed"); });
  EXPECT_THROW(task.join(), std::runtime_error);
  // The error is delivered once; the task can run again.
  int runs = 0;
  task.start(pool, [&runs] { ++runs; });
  task.join();
  EXPECT_EQ(runs, 1);
}

TEST(PoolTask, StartBeforeJoinIsRefused) {
  PoolTask task;
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  task.start(pool, [&release] {
    while (!release.load()) std::this_thread::yield();
  });
  EXPECT_THROW(task.start(pool, [] {}), std::logic_error);
  release.store(true);
  task.join();
}

// Restarted back to back, every task runs exactly once, whichever claimer
// (a late closure of an earlier start, its own closure or the join) runs
// it.
TEST(PoolTask, EveryStartRunsOnce) {
  std::vector<PoolTask> tasks(4);
  std::vector<int> runs(tasks.size(), 0);
  ThreadPool pool(3);
  for (int wave = 0; wave < 500; ++wave) {
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      tasks[k].start(pool, [&runs, k] { ++runs[k]; });
    }
    for (auto& task : tasks) task.join();
  }
  for (const int count : runs) EXPECT_EQ(count, 500);
}

}  // namespace
}  // namespace tpa::util
