// Request batcher: a bounded MPSC queue that coalesces single-row scoring
// requests into batches and executes them on ThreadPool workers.
//
// Any number of producer threads call submit().  Batches are formed by drain
// tasks on the pool, not by a timer: a drain task takes up to
// max_batch_size queued requests, executes them as one batch and loops.  One
// rule, applied under the queue mutex, starts and stops them:
//   - submit() starts a drain task when none is running, or when a full
//     batch waits for every drain task already running, up to pool.size()
//     drain tasks at once;
//   - the last drain task running continues until the queue is empty; any
//     other stops once less than a full batch waits.
// A queued request therefore always has a drain task coming for it and
// waits only while the scorer is busy, and batches fill exactly when the
// scorer falls behind.  The trade-off is head-of-line: while one drain task
// scores a slow batch and fewer than max_batch_size requests wait, an idle
// worker stays idle, so those requests wait up to one batch service time.
//
// Backpressure: submit() sheds load with a typed Admission verdict (no
// blocking) once queue_capacity requests are waiting.  With every drain task
// busy the queue fills and admissions start rejecting, so a slow scorer
// cannot build an unbounded backlog.
// Shutdown drains: every accepted request is executed before the destructor
// returns, so a caller that holds a future always sees it resolve.
//
// When tracing is on, every 64th request taken into a batch records a
// "serve/queue" span from its enqueue to the start of its batch.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <vector>

#include "sparse/csr.hpp"
#include "util/thread_pool.hpp"

namespace tpa::serve {

/// Typed admission verdict for one submitted request.
enum class Admission {
  kAccepted,     // queued; the future will resolve
  kQueueFull,    // shed by admission control — retry later
  kNoModel,      // nothing published yet (used by Server)
  kShutdown,     // batcher is stopping
};

const char* admission_name(Admission a) noexcept;

/// One queued scoring request.  The row view aliases caller-owned storage,
/// which must stay alive until the future resolves.
struct Request {
  sparse::SparseVectorView row;
  std::promise<float> result;
  std::chrono::steady_clock::time_point enqueued;
};

struct SubmitResult {
  Admission status = Admission::kShutdown;
  std::future<float> prediction;  // valid only when accepted

  bool accepted() const noexcept { return status == Admission::kAccepted; }
};

struct BatcherConfig {
  std::size_t max_batch_size = 64;
  std::size_t queue_capacity = 1024;
};

class RequestBatcher {
 public:
  /// `on_batch` runs on a pool worker with exclusive ownership of the batch;
  /// it must fulfil every request's promise.  It must not submit work back
  /// to `pool` (the pool's workers may all be running drain tasks).
  using BatchFn = std::function<void(std::vector<Request>&)>;

  RequestBatcher(BatcherConfig config, util::ThreadPool& pool,
                 BatchFn on_batch);
  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;
  /// Stops admissions and waits until every accepted request has executed.
  ~RequestBatcher();

  /// Non-blocking admission: rejects with kQueueFull / kShutdown instead of
  /// waiting.  Thread-safe.
  SubmitResult submit(sparse::SparseVectorView row);

  /// Blocks until the queue is empty and no batch is executing.
  void drain();

  /// Number of requests currently waiting (diagnostic).
  std::size_t queued() const;

 private:
  void drain_loop();

  BatcherConfig config_;
  util::ThreadPool& pool_;
  BatchFn on_batch_;

  mutable std::mutex mutex_;
  std::condition_variable idle_;  // the last drain task stopped
  std::deque<Request> queue_;
  // Drain tasks started and not yet stopped.  Never 0 while queue_ holds a
  // request: the last one stops only on an empty queue.
  std::size_t draining_ = 0;
  std::uint64_t taken_ = 0;  // requests taken into batches (trace sampling)
  bool stopping_ = false;
};

}  // namespace tpa::serve
