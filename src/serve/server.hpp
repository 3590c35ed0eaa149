// The serving front end: registry + batcher + scorer + metrics behind one
// object.
//
// Lifecycle: construct, publish at least one model, then submit single-row
// requests from any number of threads.  The batcher's drain tasks, at most
// one per pool worker, take the queued requests in batches of up to
// max_batch_size; each batch snapshots the live model once and scores every
// row against it, and each request's future resolves with ŷ.  A request
// waits only while the scorer is busy: no timer holds a batch open.  A
// trainer can publish() / reload() at any time: in-flight batches finish on
// the version they snapshotted, later batches see the new weights —
// accepted requests are never dropped by a reload.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "serve/metrics.hpp"
#include "serve/model_registry.hpp"
#include "serve/request_batcher.hpp"
#include "util/thread_pool.hpp"

namespace tpa::serve {

struct ServerConfig {
  std::size_t threads = 4;  // pool workers, and the most drain tasks at once
  BatcherConfig batcher;
  std::uint64_t log_every_batches = 0;  // 0 = no periodic stats logging
  /// reload() retries a failed file read this many extra times, sleeping
  /// `reload_backoff_ms` (jittered ±50% so replicas watching the same
  /// trainer don't retry in lockstep) between attempts.  A trainer that
  /// saves with write-to-tmp + rename can leave a reader a transiently
  /// missing or half-renamed file; one short retry rides it out while the
  /// old model stays live.  0 disables retrying.
  int reload_retries = 1;
  int reload_backoff_ms = 50;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  /// Drains every accepted request before tearing down.
  ~Server() = default;

  /// Publishes a model (atomic hot-reload); returns the new version.
  std::uint64_t publish(const core::SavedModel& saved);
  /// Loads and publishes a .tpam file.  Transient read failures (file
  /// mid-rename by a trainer, torn partial write) are retried
  /// `reload_retries` times with `reload_backoff_ms` backoff; if every
  /// attempt fails the last error is rethrown and the old model stays live.
  /// A core::NonFiniteModel is rethrown on the first attempt: it is raised
  /// only after the file's digest verified, so a retry reads the same
  /// numbers.
  std::uint64_t reload(const std::string& path);

  const ModelRegistry& registry() const noexcept { return registry_; }

  /// Admission-controlled single-row scoring.  Returns kNoModel before the
  /// first publish, kQueueFull under load; accepted rows resolve their
  /// future once a batch executes them.  The row view must stay alive until
  /// then.  Thread-safe.
  SubmitResult submit(sparse::SparseVectorView row);

  /// Blocks until everything accepted so far has completed.
  void drain() { batcher_->drain(); }

  StatsSnapshot stats() const { return metrics_.snapshot(); }

  util::ThreadPool& pool() noexcept { return pool_; }

 private:
  void execute_batch(std::vector<Request>& batch);

  ServerConfig config_;
  ModelRegistry registry_;
  ServingMetrics metrics_;
  util::ThreadPool pool_;
  std::unique_ptr<RequestBatcher> batcher_;  // destroyed before pool_
};

}  // namespace tpa::serve
