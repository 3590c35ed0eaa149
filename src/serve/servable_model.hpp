// Score-ready form of a trained model.
//
// Training produces either primal weights β or a dual iterate whose shared
// vector is w̄ = Aᵀα; serving always scores ŷ = ⟨ā, β⟩ against a dense β, so
// publication normalises both formulations to the same dense-weight layout
// (dual models map through eq. 5, β = w̄/λ).  Instances are immutable after
// construction and shared across scoring threads via shared_ptr.
#pragma once

#include <cstdint>
#include <vector>

#include "core/model_io.hpp"

namespace tpa::serve {

struct ServableModel {
  std::uint64_t version = 0;
  double lambda = 0.0;
  core::Formulation trained_as = core::Formulation::kPrimal;
  std::vector<float> beta;

  std::size_t num_features() const noexcept { return beta.size(); }

  /// Normalises a SavedModel for scoring.  Throws std::invalid_argument when
  /// the model cannot yield dense weights: empty weight data, or a dual
  /// model with λ <= 0 (eq. 5 would divide by zero); and
  /// core::NonFiniteModel when a β entry is not finite, as when a finite
  /// dual w̄ overflows float under the 1/λ mapping.
  static ServableModel from_saved(const core::SavedModel& saved,
                                  std::uint64_t version);
};

}  // namespace tpa::serve
