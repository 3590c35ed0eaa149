// Mutable solver state: the coordinate weights and the shared vector.
//
// Keeping the shared vector consistent with the weights (w = Aβ, w̄ = Aᵀα) is
// the crux of asynchronous SCD — PASSCoDe-Wild's defect is precisely that it
// lets the two drift apart.  `shared_inconsistency` measures that drift and
// is used both by tests and by the Fig. 10 reproduction.
#pragma once

#include <span>
#include <vector>

#include "core/ridge_problem.hpp"

namespace tpa::core {

struct ModelState {
  Formulation formulation = Formulation::kPrimal;
  std::vector<float> weights;  // β ∈ R^M (primal) or α ∈ R^N (dual)
  std::vector<float> shared;   // w ∈ R^N (primal) or w̄ ∈ R^M (dual)

  /// All-zero state of the right dimensions for `problem` / `f`.  Every
  /// solver binds its problem to a formulation here, so this is where a
  /// loss without `f` (elastic net dual, hinge primal) throws
  /// std::invalid_argument.
  static ModelState zeros(const RidgeProblem& problem, Formulation f);

  /// Recomputes the shared vector exactly from the weights (the paper's
  /// occasional "re-computation" remedy for asynchronous drift).
  void recompute_shared(const RidgeProblem& problem);

  /// ||shared − recomputed||_∞: zero for a consistent state.
  double shared_inconsistency(const RidgeProblem& problem) const;
};

}  // namespace tpa::core
