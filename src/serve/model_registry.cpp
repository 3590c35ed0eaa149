#include "serve/model_registry.hpp"

namespace tpa::serve {

std::uint64_t ModelRegistry::publish(const core::SavedModel& saved) {
  core::require_finite(saved, "publish");
  const std::uint64_t version =
      next_version_.fetch_add(1, std::memory_order_relaxed);
  auto model = std::make_shared<const ServableModel>(
      ServableModel::from_saved(saved, version));
  model_.store(std::move(model), std::memory_order_release);
  return version;
}

std::uint64_t ModelRegistry::publish_file(const std::string& path) {
  return publish(core::read_model_file(path));
}

}  // namespace tpa::serve
