#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "serve/scorer.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace tpa::serve {

// The pool parks idle workers at once (spin budget 0): a drain task is
// long-lived, so an idle worker's spin would only take a CPU from the
// producers.
Server::Server(ServerConfig config)
    : config_(config), pool_(config.threads, 0) {
  batcher_ = std::make_unique<RequestBatcher>(
      config_.batcher, pool_,
      [this](std::vector<Request>& batch) { execute_batch(batch); });
}

std::uint64_t Server::publish(const core::SavedModel& saved) {
  const auto version = registry_.publish(saved);
  metrics_.record_reload();
  TPA_LOG_INFO << "serve: published model v" << version;
  return version;
}

std::uint64_t Server::reload(const std::string& path) {
  // The span covers retries and backoff sleeps: the exported duration is the
  // full time serving ran on the stale model.
  obs::TraceSpan span("serve/reload");
  const int attempts = 1 + std::max(0, config_.reload_retries);
  // Jitter the backoff by ±50% so replicas that watched the same trainer
  // don't hammer the file in lockstep.  Wall-clock seeded: reload timing is
  // outside the deterministic simulation and should not share its streams.
  util::Rng jitter(static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()));
  for (int attempt = 1;; ++attempt) {
    try {
      const auto version = registry_.publish_file(path);
      metrics_.record_reload();
      TPA_LOG_INFO << "serve: reloaded " << path << " as model v" << version;
      return version;
    } catch (const std::exception& error) {
      // A non-finite model is refused after its digest verified: the file is
      // whole, and another read finds the same numbers.  Only a torn or
      // missing file can change between attempts.
      const bool deterministic =
          dynamic_cast<const core::NonFiniteModel*>(&error) != nullptr;
      if (deterministic || attempt >= attempts) {
        TPA_LOG_ERROR << "serve: reload of " << path << " failed after "
                      << attempt << " attempt" << (attempt == 1 ? "" : "s")
                      << ", giving up: " << error.what();
        throw;
      }
      const auto sleep_ms =
          config_.reload_backoff_ms * jitter.uniform(0.5, 1.5);
      TPA_LOG_WARN << "serve: reload of " << path << " failed (attempt "
                   << attempt << "/" << attempts << "): " << error.what()
                   << "; retrying in " << sleep_ms << "ms";
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          sleep_ms));
    }
  }
}

SubmitResult Server::submit(sparse::SparseVectorView row) {
  if (registry_.current() == nullptr) {
    SubmitResult result;
    result.status = Admission::kNoModel;
    metrics_.record_reject();
    return result;
  }
  auto result = batcher_->submit(row);
  if (result.accepted()) {
    metrics_.record_accept();
  } else {
    metrics_.record_reject();
  }
  return result;
}

void Server::execute_batch(std::vector<Request>& batch) {
  obs::TraceSpan span("serve/batch", obs::kCurrentThread,
                      static_cast<std::int64_t>(batch.size()));
  // One model snapshot per batch: a publish() racing with this batch either
  // lands before (whole batch scores on the new weights) or after (batch
  // finishes on the old weights, freed with the last reference).
  const auto model = registry_.current();
  const auto done = std::chrono::steady_clock::now;
  for (auto& request : batch) {
    if (model == nullptr) {
      // Only reachable if a request was accepted before any publish — the
      // Server guards that, but fail loudly rather than fabricate a score.
      request.result.set_exception(std::make_exception_ptr(
          std::runtime_error("serve: no model published")));
      continue;
    }
    request.result.set_value(
        static_cast<float>(score_row(request.row, model->beta)));
    metrics_.record_latency(
        std::chrono::duration<double>(done() - request.enqueued).count());
  }
  metrics_.record_batch(batch.size());
  if (config_.log_every_batches != 0 &&
      metrics_.batches() % config_.log_every_batches == 0) {
    TPA_LOG_INFO << "serve: " << metrics_.snapshot().summary();
  }
}

}  // namespace tpa::serve
