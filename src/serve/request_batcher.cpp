#include "serve/request_batcher.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"

namespace tpa::serve {
namespace {

// One "serve/queue" span per this many requests: a traced pass of 16384
// requests must fit the tracer's per-thread ring next to its batch spans.
constexpr std::uint64_t kQueueTraceEvery = 64;

/// Records a "serve/queue" span, enqueue to now, for each request of `batch`
/// whose index among all requests taken into batches is a multiple of
/// kQueueTraceEvery; `first` is the index of batch[0].
void trace_queue_waits(const std::vector<Request>& batch,
                       std::uint64_t first) {
  if (!obs::trace_enabled()) return;
  const auto now = std::chrono::steady_clock::now();
  const double now_us = obs::trace_now_us();
  for (std::size_t i = (kQueueTraceEvery - first % kQueueTraceEvery) %
                       kQueueTraceEvery;
       i < batch.size(); i += kQueueTraceEvery) {
    const double waited_us =
        std::chrono::duration<double, std::micro>(now - batch[i].enqueued)
            .count();
    obs::trace_complete("serve/queue", now_us - waited_us, waited_us);
  }
}

}  // namespace

const char* admission_name(Admission a) noexcept {
  switch (a) {
    case Admission::kAccepted:
      return "accepted";
    case Admission::kQueueFull:
      return "queue-full";
    case Admission::kNoModel:
      return "no-model";
    case Admission::kShutdown:
      return "shutdown";
  }
  return "?";
}

RequestBatcher::RequestBatcher(BatcherConfig config, util::ThreadPool& pool,
                               BatchFn on_batch)
    : config_(config), pool_(pool), on_batch_(std::move(on_batch)) {
  if (config_.max_batch_size == 0) config_.max_batch_size = 1;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
}

RequestBatcher::~RequestBatcher() {
  std::unique_lock<std::mutex> lock(mutex_);
  stopping_ = true;
  // A non-empty queue always has a drain task running, so no drain task
  // left means every accepted request has executed.
  idle_.wait(lock, [this] { return draining_ == 0; });
}

SubmitResult RequestBatcher::submit(sparse::SparseVectorView row) {
  SubmitResult result;
  bool start_drain = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      result.status = Admission::kShutdown;
      return result;
    }
    if (queue_.size() >= config_.queue_capacity) {
      result.status = Admission::kQueueFull;
      return result;
    }
    Request request;
    request.row = row;
    request.enqueued = std::chrono::steady_clock::now();
    result.prediction = request.result.get_future();
    result.status = Admission::kAccepted;
    queue_.push_back(std::move(request));
    // Start a drain task when none runs, or when a full batch waits for
    // every one already running.
    start_drain = draining_ < pool_.size() &&
                  queue_.size() >= draining_ * config_.max_batch_size;
    if (start_drain) ++draining_;
  }
  if (start_drain) pool_.submit([this] { drain_loop(); });
  return result;
}

void RequestBatcher::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return draining_ == 0; });
}

std::size_t RequestBatcher::queued() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void RequestBatcher::drain_loop() {
  std::vector<Request> batch;  // reused: grows to the largest batch once
  std::unique_lock<std::mutex> lock(mutex_);
  // The last drain task empties the queue; any other stops once less than
  // a full batch waits, which the tasks still running will take.
  while (!queue_.empty() &&
         (draining_ == 1 || queue_.size() >= config_.max_batch_size)) {
    const std::size_t take = std::min(queue_.size(), config_.max_batch_size);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    const std::uint64_t first = taken_;
    taken_ += take;
    lock.unlock();
    trace_queue_waits(batch, first);
    on_batch_(batch);
    batch.clear();
    lock.lock();
  }
  // Notify under the lock: drain() or the destructor may destroy this
  // batcher the moment the predicate holds, so the cv must not be touched
  // after unlock.
  if (--draining_ == 0) idle_.notify_all();
}

}  // namespace tpa::serve
