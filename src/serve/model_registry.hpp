// Versioned model registry with atomic hot-reload.
//
// The live model is a shared_ptr<const ServableModel> behind an atomic: a
// trainer thread publishes new weights while scoring threads keep executing
// in-flight batches against the version they snapshotted — no lock is held
// across scoring, and the old model is freed when its last batch drops the
// reference.  publish_file() goes through core::read_model_file, so a
// truncated or bit-flipped .tpam is rejected by its checksum and the
// previously published model stays live.  publish() refuses a model holding
// a NaN or an infinity the same way.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/servable_model.hpp"

namespace tpa::serve {

class ModelRegistry {
 public:
  /// The live model; null until the first publish.  Lock-free snapshot —
  /// callers hold the returned pointer for the duration of a batch.
  std::shared_ptr<const ServableModel> current() const noexcept {
    return model_.load(std::memory_order_acquire);
  }

  /// Version of the live model; 0 until the first publish.
  std::uint64_t version() const noexcept {
    const auto model = current();
    return model ? model->version : 0;
  }

  /// Normalises and atomically swaps in a new model; returns its version.
  /// Throws core::NonFiniteModel when a weight or shared entry is not
  /// finite, and std::invalid_argument when the model has no usable
  /// weights; either way the old model stays live.
  std::uint64_t publish(const core::SavedModel& saved);

  /// Reads a .tpam file (magic / truncation / checksum validated) and
  /// publishes it.  Throws std::runtime_error on a bad file, leaving the
  /// old model live.
  std::uint64_t publish_file(const std::string& path);

 private:
  std::atomic<std::shared_ptr<const ServableModel>> model_{};
  std::atomic<std::uint64_t> next_version_{1};
};

}  // namespace tpa::serve
