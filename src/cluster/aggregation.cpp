#include "cluster/aggregation.hpp"

#include <algorithm>
#include <cmath>

namespace tpa::cluster {
namespace {

constexpr double kDenominatorFloor = 1e-30;

}  // namespace

double optimal_gamma_primal(const PrimalGammaTerms& terms, double examples,
                            double lambda, double fallback) {
  const double denominator =
      terms.dw_sq + examples * lambda * terms.dbeta_sq;
  if (!(denominator > kDenominatorFloor)) return fallback;
  return (terms.y_minus_w_dot_dw -
          examples * lambda * terms.beta_dot_dbeta) /
         denominator;
}

double optimal_gamma_dual(const DualGammaTerms& terms, double examples,
                          double lambda, double fallback) {
  const double denominator =
      terms.dwbar_sq / lambda + examples * terms.dalpha_sq;
  if (!(denominator > kDenominatorFloor)) return fallback;
  return (terms.dalpha_dot_y - examples * terms.dalpha_dot_alpha -
          terms.wbar_dot_dwbar / lambda) /
         denominator;
}

double line_search_gamma(core::Formulation formulation,
                         std::span<const float> shared,
                         std::span<const double> dshared,
                         std::span<const float> labels, PrimalGammaTerms pterms,
                         DualGammaTerms dterms, double examples, double lambda,
                         double fallback) {
  double shared_sq = 0.0;
  double dshared_sq = 0.0;
  double shared_dot_dshared = 0.0;
  for (std::size_t i = 0; i < shared.size(); ++i) {
    shared_sq += static_cast<double>(shared[i]) * shared[i];
    dshared_sq += dshared[i] * dshared[i];
    shared_dot_dshared += static_cast<double>(shared[i]) * dshared[i];
  }
  if (dshared_sq <= 1e-10 * std::max(1.0, shared_sq)) return fallback;
  if (formulation == core::Formulation::kPrimal) {
    pterms.dw_sq = dshared_sq;
    for (std::size_t i = 0; i < shared.size(); ++i) {
      pterms.y_minus_w_dot_dw +=
          (static_cast<double>(labels[i]) - shared[i]) * dshared[i];
    }
    return optimal_gamma_primal(pterms, examples, lambda, fallback);
  }
  dterms.dwbar_sq = dshared_sq;
  dterms.wbar_dot_dwbar = shared_dot_dshared;
  return optimal_gamma_dual(dterms, examples, lambda, fallback);
}

}  // namespace tpa::cluster
