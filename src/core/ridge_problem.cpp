#include "core/ridge_problem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/cost_model.hpp"
#include "linalg/vector_ops.hpp"
#include "util/thread_pool.hpp"

namespace tpa::core {
namespace {

// A pool with a single worker would add scheduling cost without splitting
// any work, and so would any pool the dispatch model predicts to lose on
// `work_entries` entries (too little work, or fewer hardware cores than
// workers); both degrade to the serial path.
util::ThreadPool* effective_pool(util::ThreadPool* pool,
                                 std::uint64_t work_entries) {
  if (pool == nullptr || pool->size() <= 1) return nullptr;
  return pool_dispatch().use_pool(work_entries,
                                  static_cast<int>(pool->size()))
             ? pool
             : nullptr;
}

// Σᵢ term(i) over [0, count) in linalg::chunked_sum's one order.
template <typename Term>
double sum_of(std::size_t count, util::ThreadPool* pool, const Term& term) {
  return linalg::chunked_sum(count, pool, [&](std::size_t b, std::size_t e) {
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i) acc += term(i);
    return acc;
  });
}

// out[c] = ⟨layout's coordinate c, x⟩ for every coordinate: Aᵀα over the
// bucketed columns, Aβ over the bucketed rows.  Each unpadded slice holds
// its CSR row's entries in the same order, so each value is that row's dot.
// The coordinates are independent, so the visiting order changes no value;
// the one order is storage order, which streams the slices, and a pool
// gives each worker a contiguous range of it.
void coordinate_dots(const sparse::BucketedLayout& layout,
                     std::span<const float> x, std::span<float> out,
                     util::ThreadPool* pool) {
  const auto order = layout.storage_order();
  const auto run = [&](std::size_t begin, std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      const Index c = order[p];
      out[c] = static_cast<float>(linalg::sparse_dot(layout.unpadded(c), x));
    }
  };
  if (pool != nullptr) {
    pool->parallel_for_chunks(order.size(), run);
  } else {
    run(0, order.size());
  }
}

// The inner product the closed form needs, at either storage type of the
// shared vector: ⟨y − w, a_m⟩ for the primal, ⟨w̄, āₙ⟩ for the dual.
template <typename T>
double coordinate_dot(const RidgeProblem& problem, Formulation f, Index j,
                      std::span<const T> shared) {
  const auto vec = problem.coordinate_vector(f, j);
  return f == Formulation::kPrimal
             ? linalg::sparse_residual_dot(vec, problem.dataset().labels(),
                                           shared)
             : linalg::sparse_dot(vec, shared);
}

// The elastic-net step in the delta form of eq. (2).  With l2 = Nλ(1−η) and
// t = Nλη, the new βₘ soft-thresholds z = ⟨y − w, aₘ⟩ + ||aₘ||²βₘ at t and
// divides by ||aₘ||² + l2; at η = 0 the Δ below performs exactly eq. (2)'s
// floating-point operations.  An empty column in the pure-L1 corner has no
// curvature and goes to zero.
double elastic_net_delta(double dot, double norm_sq, double weight,
                         double n_lambda, double l1_ratio) {
  const double l2 = n_lambda * (1.0 - l1_ratio);
  const double t = n_lambda * l1_ratio;
  const double z = dot + norm_sq * weight;
  if (norm_sq + l2 <= 0.0) return -weight;
  if (z > t) return (dot - l2 * weight - t) / (norm_sq + l2);
  if (z < -t) return (dot - l2 * weight + t) / (norm_sq + l2);
  return -weight;
}

// The SDCA step [9] on the signed dual βₙ = yₙαₙ: maximise D in αₙ exactly,
// clip to [0, 1], and return the step in β.  `dot` is ⟨w̄, āₙ⟩ = λN·⟨v, āₙ⟩.
// An empty example carries no constraint.
double hinge_delta(double dot, double norm_sq, double weight, double label,
                   double lambda_n) {
  if (norm_sq == 0.0) return 0.0;
  const double alpha = label * weight;
  const double margin = label * dot / lambda_n;
  const double next =
      std::clamp(alpha + (1.0 - margin) * lambda_n / norm_sq, 0.0, 1.0);
  return label * (next - alpha);
}

// Max KKT violation of the elastic net at β: where βₘ ≠ 0 the subgradient
// must vanish; where βₘ = 0 the smooth gradient must lie within [−λη, λη].
// The gradient is taken at w = Aβ recomputed from the weights, not at a
// solver's shared vector: lost updates let that drift from Aβ, and a β
// stationary for a drifted w is biased, which must not read as converged.
double elastic_net_kkt(const RidgeProblem& problem,
                       std::span<const float> beta) {
  const auto w = linalg::csr_matvec(problem.dataset().by_row(), beta);
  const double t = problem.lambda() * problem.loss().l1_ratio;
  double worst = 0.0;
  for (Index m = 0; m < problem.num_features(); ++m) {
    const auto b = static_cast<double>(beta[m]);
    // The squared loss's partial less the L1 share of its λβₘ term.
    const double grad = problem.primal_partial(m, beta, w) - t * b;
    const double violation = b > 0.0   ? std::abs(grad + t)
                             : b < 0.0 ? std::abs(grad - t)
                                       : std::max(0.0, std::abs(grad) - t);
    worst = std::max(worst, violation);
  }
  return worst;
}

}  // namespace

RidgeProblem::RidgeProblem(const data::Dataset& dataset, double lambda,
                           Index global_examples, Loss loss)
    : dataset_(&dataset),
      lambda_(lambda),
      global_examples_(global_examples),
      loss_(loss) {
  if (!(lambda > 0.0) || !std::isfinite(lambda)) {
    throw std::invalid_argument(
        "RidgeProblem: lambda must be positive and finite");
  }
  if (!(loss.l1_ratio >= 0.0 && loss.l1_ratio <= 1.0)) {
    throw std::invalid_argument("RidgeProblem: l1_ratio must be in [0, 1]");
  }
  if (dataset.num_examples() == 0 || dataset.num_features() == 0) {
    throw std::invalid_argument("RidgeProblem: dataset must be non-empty");
  }
  if (loss.kind == LossKind::kHinge) {
    for (const auto y : dataset.labels()) {
      if (y != 1.0F && y != -1.0F) {
        throw std::invalid_argument(
            "RidgeProblem: the hinge loss needs labels of +-1");
      }
    }
  }
}

Index RidgeProblem::num_coordinates(Formulation f) const noexcept {
  return f == Formulation::kPrimal ? num_features() : num_examples();
}

Index RidgeProblem::shared_dim(Formulation f) const noexcept {
  return f == Formulation::kPrimal ? num_examples() : num_features();
}

SparseVectorView RidgeProblem::coordinate_vector(Formulation f,
                                                 Index j) const {
  return f == Formulation::kPrimal ? dataset_->bucketed_cols().padded(j)
                                   : dataset_->bucketed_rows().padded(j);
}

SparseVectorView RidgeProblem::coordinate_vector_unpadded(Formulation f,
                                                          Index j) const {
  return f == Formulation::kPrimal ? dataset_->bucketed_cols().unpadded(j)
                                   : dataset_->bucketed_rows().unpadded(j);
}

double RidgeProblem::coordinate_squared_norm(Formulation f, Index j) const {
  return f == Formulation::kPrimal ? dataset_->col_squared_norms()[j]
                                   : dataset_->row_squared_norms()[j];
}

double RidgeProblem::coordinate_delta(Formulation f, Index j,
                                      std::span<const float> shared,
                                      double weight_j) const {
  return closed_form_delta(f, j, coordinate_dot(*this, f, j, shared),
                           weight_j);
}

double RidgeProblem::coordinate_delta(Formulation f, Index j,
                                      std::span<const linalg::Half> shared,
                                      double weight_j) const {
  return closed_form_delta(f, j, coordinate_dot(*this, f, j, shared),
                           weight_j);
}

double RidgeProblem::closed_form_delta(Formulation f, Index j, double dot,
                                       double weight_j) const {
  const auto n = static_cast<double>(effective_examples());
  const double norm_sq = coordinate_squared_norm(f, j);
  if (f == Formulation::kPrimal) {
    if (loss_.kind == LossKind::kElasticNet) {
      return elastic_net_delta(dot, norm_sq, weight_j, n * lambda_,
                               loss_.l1_ratio);
    }
    // Eq. (2): Δβ = (⟨y − w, a_m⟩ − Nλβ_m) / (||a_m||² + Nλ).
    return (dot - n * lambda_ * weight_j) / (norm_sq + n * lambda_);
  }
  const double y_n = dataset_->labels()[j];
  if (loss_.kind == LossKind::kHinge) {
    return hinge_delta(dot, norm_sq, weight_j, y_n, lambda_ * n);
  }
  // Eq. (4): Δα = (λyₙ − ⟨w̄, āₙ⟩ − λNαₙ) / (λN + ||āₙ||²).
  return (lambda_ * y_n - dot - lambda_ * n * weight_j) /
         (lambda_ * n + norm_sq);
}

double RidgeProblem::primal_objective(std::span<const float> beta,
                                      std::span<const float> w,
                                      util::ThreadPool* pool) const {
  util::ThreadPool* p = effective_pool(pool, w.size() + beta.size());
  const auto n = static_cast<double>(effective_examples());
  const auto labels = dataset_->labels();
  const double beta_sq = linalg::chunked_squared_norm(beta, p);
  if (loss_.kind == LossKind::kHinge) {
    const double hinge_sum = sum_of(w.size(), p, [&](std::size_t i) {
      return std::max(0.0, 1.0 - labels[i] * static_cast<double>(w[i]));
    });
    return 0.5 * lambda_ * beta_sq + hinge_sum / n;
  }
  const double residual_sq = sum_of(w.size(), p, [&](std::size_t i) {
    const double r = static_cast<double>(w[i]) - labels[i];
    return r * r;
  });
  if (loss_.kind == LossKind::kElasticNet) {
    const double eta = loss_.l1_ratio;
    const double l1 = sum_of(beta.size(), p, [&](std::size_t i) {
      return std::abs(static_cast<double>(beta[i]));
    });
    return residual_sq / (2.0 * n) +
           lambda_ * ((1.0 - eta) / 2.0 * beta_sq + eta * l1);
  }
  return residual_sq / (2.0 * n) + 0.5 * lambda_ * beta_sq;
}

double RidgeProblem::dual_objective(std::span<const float> alpha,
                                    std::span<const float> wbar,
                                    util::ThreadPool* pool) const {
  util::ThreadPool* p = effective_pool(pool, 2 * alpha.size() + wbar.size());
  const auto n = static_cast<double>(effective_examples());
  const auto labels = dataset_->labels();
  const double wbar_sq = linalg::chunked_squared_norm(wbar, p);
  // Σ αₙyₙ; for the hinge loss, Σ αₙ of the unsigned dual αₙ = yₙβₙ.
  const double alpha_y = sum_of(alpha.size(), p, [&](std::size_t i) {
    return static_cast<double>(alpha[i]) * labels[i];
  });
  if (loss_.kind == LossKind::kHinge) {
    // λ/2·||v||² = ||w̄||² / (2λN²).
    return alpha_y / n - wbar_sq / (2.0 * lambda_ * n * n);
  }
  const double alpha_sq = linalg::chunked_squared_norm(alpha, p);
  return -0.5 * n * alpha_sq - wbar_sq / (2.0 * lambda_) + alpha_y;
}

double RidgeProblem::primal_duality_gap(std::span<const float> beta,
                                        std::span<const float> w,
                                        util::ThreadPool* pool) const {
  // Candidate dual point from eq. (6): α = (y − w)/N, then w̄ = Aᵀα.
  // Work is dominated by the matvec — one visit per stored nonzero.
  util::ThreadPool* p = effective_pool(pool, dataset_->nnz());
  const auto alpha = dual_from_primal_shared(w);
  std::vector<float> wbar(static_cast<std::size_t>(num_features()));
  coordinate_dots(dataset_->bucketed_cols(), alpha, wbar, p);
  return std::abs(primal_objective(beta, w, p) -
                  dual_objective(alpha, wbar, p));
}

double RidgeProblem::dual_duality_gap(std::span<const float> alpha,
                                      std::span<const float> wbar,
                                      util::ThreadPool* pool) const {
  // Candidate primal point from eq. (5): β = w̄/λ, then w = Aβ.
  util::ThreadPool* p = effective_pool(pool, dataset_->nnz());
  const auto beta = primal_from_dual_shared(wbar);
  std::vector<float> w(static_cast<std::size_t>(num_examples()));
  coordinate_dots(dataset_->bucketed_rows(), beta, w, p);
  return std::abs(primal_objective(beta, w, p) -
                  dual_objective(alpha, wbar, p));
}

double RidgeProblem::duality_gap(Formulation f,
                                 std::span<const float> weights,
                                 std::span<const float> shared,
                                 util::ThreadPool* pool) const {
  if (loss_.kind == LossKind::kElasticNet) {
    return elastic_net_kkt(*this, weights);
  }
  return f == Formulation::kPrimal ? primal_duality_gap(weights, shared, pool)
                                   : dual_duality_gap(weights, shared, pool);
}

std::vector<float> RidgeProblem::primal_from_dual_shared(
    std::span<const float> wbar) const {
  std::vector<float> beta(wbar.size());
  const double inv_lambda =
      1.0 / (loss_.kind == LossKind::kHinge
                 ? lambda_ * static_cast<double>(effective_examples())
                 : lambda_);
  for (std::size_t i = 0; i < wbar.size(); ++i) {
    beta[i] = static_cast<float>(wbar[i] * inv_lambda);
  }
  return beta;
}

std::vector<float> RidgeProblem::dual_from_primal_shared(
    std::span<const float> w) const {
  const auto labels = dataset_->labels();
  std::vector<float> alpha(w.size());
  const double inv_n = 1.0 / static_cast<double>(effective_examples());
  for (std::size_t i = 0; i < w.size(); ++i) {
    alpha[i] = static_cast<float>((labels[i] - w[i]) * inv_n);
  }
  return alpha;
}

double RidgeProblem::primal_partial(Index m, std::span<const float> beta,
                                    std::span<const float> w) const {
  // ∂P/∂βₘ = (1/N)·⟨Aβ − y, a_m⟩ + λβₘ = −(1/N)·⟨y − w, a_m⟩ + λβₘ.
  const auto n = static_cast<double>(effective_examples());
  const double residual_dot = linalg::sparse_residual_dot(
      coordinate_vector(Formulation::kPrimal, m), dataset_->labels(), w);
  return -residual_dot / n + lambda_ * static_cast<double>(beta[m]);
}

double RidgeProblem::dual_partial(Index n, std::span<const float> alpha,
                                  std::span<const float> wbar) const {
  // ∂D/∂αₙ = −Nαₙ − (1/λ)·⟨Aᵀα, āₙ⟩ + yₙ.
  const auto examples = static_cast<double>(effective_examples());
  const double wbar_dot = linalg::sparse_dot(
      coordinate_vector(Formulation::kDual, n), wbar);
  return -examples * static_cast<double>(alpha[n]) - wbar_dot / lambda_ +
         static_cast<double>(dataset_->labels()[n]);
}

}  // namespace tpa::core
