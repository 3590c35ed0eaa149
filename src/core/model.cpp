#include "core/model.hpp"

#include <stdexcept>

#include "linalg/vector_ops.hpp"

namespace tpa::core {

ModelState ModelState::zeros(const RidgeProblem& problem, Formulation f) {
  const LossKind loss = problem.loss().kind;
  if (loss == LossKind::kElasticNet && f == Formulation::kDual) {
    throw std::invalid_argument("the elastic net has no dual formulation");
  }
  if (loss == LossKind::kHinge && f == Formulation::kPrimal) {
    throw std::invalid_argument("the hinge loss has no primal formulation");
  }
  ModelState state;
  state.formulation = f;
  state.weights.assign(problem.num_coordinates(f), 0.0F);
  state.shared.assign(problem.shared_dim(f), 0.0F);
  return state;
}

void ModelState::recompute_shared(const RidgeProblem& problem) {
  const auto& by_row = problem.dataset().by_row();
  shared = formulation == Formulation::kPrimal
               ? linalg::csr_matvec(by_row, weights)
               : linalg::csr_matvec_transposed(by_row, weights);
}

double ModelState::shared_inconsistency(const RidgeProblem& problem) const {
  ModelState reference = *this;
  reference.recompute_shared(problem);
  return linalg::max_abs_diff(shared, reference.shared);
}

}  // namespace tpa::core
