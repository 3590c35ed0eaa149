// Aggregation of worker updates (paper Section IV.B).
//
// Averaging applies γ = 1/K to the summed updates (Algorithm 3).  Adaptive
// aggregation (Algorithm 4, the paper's second contribution) computes the
// exact line-search optimum of the objective along the aggregated update
// direction from a handful of scalars that workers can reduce alongside the
// shared-vector deltas.
//
// Derivations (verified by property test against grid search):
//   primal:  γ* = (⟨y − w, Δw⟩ − Nλ⟨β, Δβ⟩) / (‖Δw‖² + Nλ‖Δβ‖²)
//   dual:    γ̄* = (⟨Δα, y⟩ − N⟨Δα, α⟩ − (1/λ)⟨Δw̄, w̄⟩)
//                 / ((1/λ)‖Δw̄‖² + N‖Δα‖²)
// Note two typos in the paper's printed formulas: eq. (7) omits the ⟨y, Δw⟩
// term (correct only if its w denotes the residual Aβ − y), and the dual
// denominator prints N‖α‖² where the derivative gives N‖Δα‖².
//
// Both cluster drivers choose γ here: the sync driver once per round on the
// summed deltas of its contributors, the async driver once per push.
#pragma once

#include <span>

#include "core/formulation.hpp"

namespace tpa::cluster {

enum class AggregationMode {
  kAveraging,  // γ = 1/K
  kAdaptive,   // exact per-epoch line search
  kFixed,      // user-chosen constant γ (the [25]-style free parameter)
};

inline const char* aggregation_name(AggregationMode mode) {
  switch (mode) {
    case AggregationMode::kAveraging:
      return "averaging";
    case AggregationMode::kAdaptive:
      return "adaptive";
    case AggregationMode::kFixed:
      return "fixed";
  }
  return "?";
}

/// Scalars reduced on the master for the primal γ*.  The β terms are sums of
/// per-worker local contributions (workers own disjoint coordinates, so
/// ⟨β, Δβ⟩ = Σₖ⟨βₖ, Δβₖ⟩ and ‖Δβ‖² = Σₖ‖Δβₖ‖²).
struct PrimalGammaTerms {
  double y_minus_w_dot_dw = 0.0;  // ⟨y − w, Δw⟩
  double beta_dot_dbeta = 0.0;    // ⟨β, Δβ⟩
  double dw_sq = 0.0;             // ‖Δw‖²
  double dbeta_sq = 0.0;          // ‖Δβ‖²
};

/// Scalars reduced for the dual γ̄*.
struct DualGammaTerms {
  double dalpha_dot_y = 0.0;      // ⟨Δα, y⟩
  double dalpha_dot_alpha = 0.0;  // ⟨Δα, α⟩
  double dalpha_sq = 0.0;         // ‖Δα‖²
  double wbar_dot_dwbar = 0.0;    // ⟨w̄, Δw̄⟩
  double dwbar_sq = 0.0;          // ‖Δw̄‖²
};

/// Closed-form optimum; returns `fallback` when the update direction is
/// (numerically) zero.
double optimal_gamma_primal(const PrimalGammaTerms& terms, double examples,
                            double lambda, double fallback);

double optimal_gamma_dual(const DualGammaTerms& terms, double examples,
                          double lambda, double fallback);

/// Adds one coordinate's local move from → from + delta to the worker-side
/// terms (primal ⟨β, Δβ⟩, ‖Δβ‖²; dual ⟨Δα, y⟩, ⟨Δα, α⟩, ‖Δα‖²); ownership
/// is disjoint across workers, so the terms sum over coordinates and
/// workers alike.  `label` is the coordinate's y (read by the dual only).
inline void add_gamma_terms(core::Formulation formulation, double label,
                            double from, double delta,
                            PrimalGammaTerms& pterms, DualGammaTerms& dterms) {
  if (formulation == core::Formulation::kPrimal) {
    pterms.beta_dot_dbeta += from * delta;
    pterms.dbeta_sq += delta * delta;
  } else {
    dterms.dalpha_dot_y += delta * label;
    dterms.dalpha_dot_alpha += from * delta;
    dterms.dalpha_sq += delta * delta;
  }
}

/// The master's side of Algorithm 4: completes the workers' summed terms
/// with the shared-vector terms of the summed move `dshared` from `shared`
/// (`labels` are the global labels, used by the primal's ⟨y − w, Δw⟩) and
/// returns the closed-form γ.  Once the model has converged to 32-bit
/// precision the move is rounding noise and the exact line search is
/// ill-conditioned, so it returns `fallback` there (it no longer matters).
double line_search_gamma(core::Formulation formulation,
                         std::span<const float> shared,
                         std::span<const double> dshared,
                         std::span<const float> labels, PrimalGammaTerms pterms,
                         DualGammaTerms dterms, double examples, double lambda,
                         double fallback);

}  // namespace tpa::cluster
