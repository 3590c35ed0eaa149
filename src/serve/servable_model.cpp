#include "serve/servable_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace tpa::serve {

ServableModel ServableModel::from_saved(const core::SavedModel& saved,
                                        std::uint64_t version) {
  ServableModel model;
  model.version = version;
  model.lambda = saved.lambda;
  model.trained_as = saved.formulation;
  if (saved.formulation == core::Formulation::kPrimal) {
    model.beta = saved.weights;
  } else {
    if (saved.lambda <= 0.0) {
      throw std::invalid_argument(
          "servable model: dual model requires lambda > 0");
    }
    const float inv_lambda = static_cast<float>(1.0 / saved.lambda);
    model.beta.reserve(saved.shared.size());
    for (const float wbar : saved.shared) model.beta.push_back(wbar * inv_lambda);
  }
  if (model.beta.empty()) {
    throw std::invalid_argument("servable model: no usable weights");
  }
  // A finite w̄ can still map past FLT_MAX: w̄ · (1/λ) overflows to inf for
  // |w̄| > FLT_MAX · λ.  Refuse it like any other non-finite model.
  for (std::size_t i = 0; i < model.beta.size(); ++i) {
    if (!std::isfinite(model.beta[i])) {
      throw core::NonFiniteModel("servable model: non-finite beta entry " +
                                 std::to_string(i) + " (" +
                                 std::to_string(model.beta[i]) + ")");
    }
  }
  return model;
}

}  // namespace tpa::serve
