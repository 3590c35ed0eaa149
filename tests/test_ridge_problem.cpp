// RidgeProblem math: objectives, partial derivatives (checked numerically),
// closed-form coordinate updates (checked against the first-order optimality
// condition), duality-gap behaviour and the primal<->dual maps.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/ridge_problem.hpp"
#include "core/seq_scd.hpp"
#include "data/generators.hpp"
#include "linalg/vector_ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tpa::core {
namespace {

data::Dataset tiny_dataset() {
  data::DenseGaussianConfig config;
  config.num_examples = 24;
  config.num_features = 10;
  config.noise_sigma = 0.1;
  return data::make_dense_gaussian(config);
}

TEST(RidgeProblem, RejectsBadInputs) {
  const auto dataset = tiny_dataset();
  EXPECT_THROW(RidgeProblem(dataset, 0.0), std::invalid_argument);
  EXPECT_THROW(RidgeProblem(dataset, -1.0), std::invalid_argument);
  EXPECT_THROW(RidgeProblem(dataset, std::nan("")), std::invalid_argument);
  EXPECT_THROW(RidgeProblem(dataset, HUGE_VAL), std::invalid_argument);
}

TEST(RidgeProblem, DimensionsPerFormulation) {
  const auto dataset = tiny_dataset();
  const RidgeProblem problem(dataset, 0.1);
  EXPECT_EQ(problem.num_coordinates(Formulation::kPrimal), 10u);
  EXPECT_EQ(problem.num_coordinates(Formulation::kDual), 24u);
  EXPECT_EQ(problem.shared_dim(Formulation::kPrimal), 24u);
  EXPECT_EQ(problem.shared_dim(Formulation::kDual), 10u);
}

TEST(RidgeProblem, HandComputedObjectivesOnOneByOne) {
  // A = [2], y = [3], lambda = 0.5, N = 1.
  sparse::CsrMatrix matrix(1, 1, {0, 1}, {0}, {2.0F});
  const data::Dataset dataset("unit", std::move(matrix), {3.0F});
  const RidgeProblem problem(dataset, 0.5);

  // P(beta) = 1/2 (2 beta - 3)^2 + 0.25 beta^2 at beta = 1: 0.5 + 0.25.
  const std::vector<float> beta{1.0F};
  const std::vector<float> w{2.0F};
  EXPECT_NEAR(problem.primal_objective(beta, w), 0.75, 1e-9);

  // D(alpha) = -1/2 a^2 - (1/1)(2a)^2/1... with lambda=0.5:
  // D = -0.5 a^2 - (1/(2*0.5)) (2a)^2 + 3a = -0.5 a^2 - 4 a^2 + 3 a.
  const std::vector<float> alpha{0.5F};
  const std::vector<float> wbar{1.0F};  // A^T alpha = 2*0.5
  EXPECT_NEAR(problem.dual_objective(alpha, wbar),
              -0.5 * 0.25 - 1.0 + 1.5, 1e-9);
}

TEST(RidgeProblem, OptimalObjectivesCoincideOnOneByOne) {
  // Same problem; the analytic optimum: beta* = a y / (a^2 + lambda N).
  sparse::CsrMatrix matrix(1, 1, {0, 1}, {0}, {2.0F});
  const data::Dataset dataset("unit", std::move(matrix), {3.0F});
  const double lambda = 0.5;
  const RidgeProblem problem(dataset, lambda);
  const double beta_star = 2.0 * 3.0 / (4.0 + 0.5);
  const std::vector<float> beta{static_cast<float>(beta_star)};
  const std::vector<float> w{static_cast<float>(2.0 * beta_star)};

  const double alpha_star = lambda * 3.0 / (lambda + 4.0);
  const std::vector<float> alpha{static_cast<float>(alpha_star)};
  const std::vector<float> wbar{static_cast<float>(2.0 * alpha_star)};

  EXPECT_NEAR(problem.primal_objective(beta, w),
              problem.dual_objective(alpha, wbar), 1e-9);
  EXPECT_NEAR(problem.primal_duality_gap(beta, w), 0.0, 1e-9);
  EXPECT_NEAR(problem.dual_duality_gap(alpha, wbar), 0.0, 1e-9);
}

class GradientCheck : public ::testing::TestWithParam<double> {};

TEST_P(GradientCheck, PrimalPartialMatchesFiniteDifference) {
  const auto dataset = tiny_dataset();
  const RidgeProblem problem(dataset, GetParam());
  util::Rng rng(11);
  std::vector<float> beta(problem.num_features());
  for (auto& b : beta) b = static_cast<float>(rng.normal());
  auto w = linalg::csr_matvec(dataset.by_row(), beta);

  const double h = 1e-3;
  for (Index m = 0; m < problem.num_features(); m += 3) {
    auto beta_plus = beta;
    beta_plus[m] += static_cast<float>(h);
    auto w_plus = linalg::csr_matvec(dataset.by_row(), beta_plus);
    auto beta_minus = beta;
    beta_minus[m] -= static_cast<float>(h);
    auto w_minus = linalg::csr_matvec(dataset.by_row(), beta_minus);
    const double numeric = (problem.primal_objective(beta_plus, w_plus) -
                            problem.primal_objective(beta_minus, w_minus)) /
                           (2.0 * h);
    EXPECT_NEAR(problem.primal_partial(m, beta, w), numeric, 5e-3)
        << "coordinate " << m << ", lambda " << GetParam();
  }
}

TEST_P(GradientCheck, DualPartialMatchesFiniteDifference) {
  const auto dataset = tiny_dataset();
  const RidgeProblem problem(dataset, GetParam());
  util::Rng rng(12);
  std::vector<float> alpha(problem.num_examples());
  for (auto& a : alpha) a = static_cast<float>(rng.normal(0.0, 0.1));
  auto wbar = linalg::csr_matvec_transposed(dataset.by_row(), alpha);

  const double h = 1e-3;
  for (Index n = 0; n < problem.num_examples(); n += 5) {
    auto alpha_plus = alpha;
    alpha_plus[n] += static_cast<float>(h);
    auto wbar_plus = linalg::csr_matvec_transposed(dataset.by_row(),
                                                   alpha_plus);
    auto alpha_minus = alpha;
    alpha_minus[n] -= static_cast<float>(h);
    auto wbar_minus = linalg::csr_matvec_transposed(dataset.by_row(),
                                                    alpha_minus);
    const double numeric =
        (problem.dual_objective(alpha_plus, wbar_plus) -
         problem.dual_objective(alpha_minus, wbar_minus)) /
        (2.0 * h);
    EXPECT_NEAR(problem.dual_partial(n, alpha, wbar), numeric, 5e-2)
        << "coordinate " << n << ", lambda " << GetParam();
  }
}

TEST_P(GradientCheck, CoordinateDeltaZeroesThePartial) {
  const auto dataset = tiny_dataset();
  const RidgeProblem problem(dataset, GetParam());
  util::Rng rng(13);

  // Primal: after the closed-form update of coordinate m, dP/dbeta_m == 0.
  std::vector<float> beta(problem.num_features());
  for (auto& b : beta) b = static_cast<float>(rng.normal(0.0, 0.3));
  auto w = linalg::csr_matvec(dataset.by_row(), beta);
  for (Index m = 0; m < problem.num_features(); m += 2) {
    const double delta =
        problem.coordinate_delta(Formulation::kPrimal, m, w, beta[m]);
    auto beta2 = beta;
    beta2[m] = static_cast<float>(beta[m] + delta);
    const auto w2 = linalg::csr_matvec(dataset.by_row(), beta2);
    EXPECT_NEAR(problem.primal_partial(m, beta2, w2), 0.0, 1e-5);
  }

  // Dual: after the closed-form update of coordinate n, dD/dalpha_n == 0.
  std::vector<float> alpha(problem.num_examples());
  for (auto& a : alpha) a = static_cast<float>(rng.normal(0.0, 0.05));
  auto wbar = linalg::csr_matvec_transposed(dataset.by_row(), alpha);
  for (Index n = 0; n < problem.num_examples(); n += 4) {
    const double delta =
        problem.coordinate_delta(Formulation::kDual, n, wbar, alpha[n]);
    auto alpha2 = alpha;
    alpha2[n] = static_cast<float>(alpha[n] + delta);
    const auto wbar2 =
        linalg::csr_matvec_transposed(dataset.by_row(), alpha2);
    EXPECT_NEAR(problem.dual_partial(n, alpha2, wbar2), 0.0, 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Lambdas, GradientCheck,
                         ::testing::Values(1e-3, 1e-2, 0.1, 1.0));

TEST(RidgeProblem, CoordinateUpdateNeverIncreasesPrimalObjective) {
  const auto dataset = tiny_dataset();
  const RidgeProblem problem(dataset, 0.05);
  std::vector<float> beta(problem.num_features(), 0.0F);
  auto w = linalg::csr_matvec(dataset.by_row(), beta);
  double objective = problem.primal_objective(beta, w);
  for (Index m = 0; m < problem.num_features(); ++m) {
    const double delta =
        problem.coordinate_delta(Formulation::kPrimal, m, w, beta[m]);
    beta[m] = static_cast<float>(beta[m] + delta);
    linalg::sparse_axpy(delta,
                        problem.coordinate_vector(Formulation::kPrimal, m),
                        w);
    const double next = problem.primal_objective(beta, w);
    EXPECT_LE(next, objective + 1e-7);
    objective = next;
  }
}

TEST(RidgeProblem, DualityGapIsNonNegativeAndShrinks) {
  const auto dataset = tiny_dataset();
  const RidgeProblem problem(dataset, 0.01);
  SeqScdSolver solver(problem, Formulation::kPrimal, 3);
  double previous = problem.duality_gap(Formulation::kPrimal,
                                        solver.state().weights,
                                        solver.state().shared);
  EXPECT_GE(previous, 0.0);
  for (int epoch = 0; epoch < 20; ++epoch) solver.run_epoch();
  const double after = solver.duality_gap(problem);
  EXPECT_GE(after, 0.0);
  EXPECT_LT(after, previous * 1e-2);
}

TEST(RidgeProblem, PrimalDualMapsInvertAtOptimum) {
  const auto dataset = tiny_dataset();
  const RidgeProblem problem(dataset, 0.05);
  // Solve the dual accurately, then verify eq. (5)/(6) self-consistency.
  SeqScdSolver solver(problem, Formulation::kDual, 4);
  for (int epoch = 0; epoch < 200; ++epoch) solver.run_epoch();
  const auto beta = problem.primal_from_dual_shared(solver.state().shared);
  const auto w = linalg::csr_matvec(dataset.by_row(), beta);
  const auto alpha_back = problem.dual_from_primal_shared(w);
  for (Index n = 0; n < problem.num_examples(); ++n) {
    EXPECT_NEAR(alpha_back[n], solver.state().weights[n], 1e-4);
  }
}

TEST(RidgeProblem, EffectiveExamplesOverridesN) {
  const auto dataset = tiny_dataset();
  const RidgeProblem local(dataset, 0.1, /*global_examples=*/240);
  EXPECT_EQ(local.num_examples(), 24u);
  EXPECT_EQ(local.effective_examples(), 240u);
  const RidgeProblem plain(dataset, 0.1);
  EXPECT_EQ(plain.effective_examples(), 24u);
  // The dual update damping term uses the override, so deltas differ.
  std::vector<float> wbar(local.shared_dim(Formulation::kDual), 0.0F);
  const double d_local =
      local.coordinate_delta(Formulation::kDual, 0, wbar, 0.0);
  const double d_plain =
      plain.coordinate_delta(Formulation::kDual, 0, wbar, 0.0);
  EXPECT_NE(d_local, d_plain);
  EXPECT_LT(std::abs(d_local), std::abs(d_plain));
}

// Pool-parallel objectives and gaps: the pooled evaluation chunks the same
// sums (and, for the primal gap, walks the column orientation), so values
// agree with the serial evaluation to reduction tolerance — and the chunked
// combine order is fixed, so results are thread-count independent.
TEST(RidgeProblemPooled, ObjectivesAndGapsMatchSerial) {
  data::WebspamLikeConfig config;
  config.num_examples = 1024;
  config.num_features = 2048;
  const auto dataset = data::make_webspam_like(config);
  const RidgeProblem problem(dataset, 1e-3);

  // A non-trivial iterate: a few SCD epochs away from the optimum.
  SeqScdSolver dual_solver(problem, Formulation::kDual, 11);
  for (int epoch = 0; epoch < 3; ++epoch) dual_solver.run_epoch();
  const auto& alpha = dual_solver.state().weights;
  const auto& wbar = dual_solver.state().shared;
  const auto beta = problem.primal_from_dual_shared(wbar);
  const auto w = linalg::csr_matvec(dataset.by_row(), beta);

  util::ThreadPool pool2(2);
  util::ThreadPool pool4(4);
  const auto tol = [](double x) { return 1e-9 * (1.0 + std::abs(x)); };

  const double primal = problem.primal_objective(beta, w);
  const double dual = problem.dual_objective(alpha, wbar);
  const double gp = problem.primal_duality_gap(beta, w);
  const double gd = problem.dual_duality_gap(alpha, wbar);
  // A gap is a cancelling difference of two objectives, so its absolute
  // error scales with the objectives' magnitude, not its own.
  const double gap_tol = 1e-7 * (1.0 + std::abs(primal) + std::abs(dual));

  for (util::ThreadPool* pool : {&pool2, &pool4}) {
    EXPECT_NEAR(problem.primal_objective(beta, w, pool), primal, tol(primal));
    EXPECT_NEAR(problem.dual_objective(alpha, wbar, pool), dual, tol(dual));
    EXPECT_NEAR(problem.primal_duality_gap(beta, w, pool), gp, gap_tol);
    EXPECT_NEAR(problem.dual_duality_gap(alpha, wbar, pool), gd, gap_tol);
  }

  // Thread-count independence: 2- and 4-worker pools chunk identically, so
  // the pooled values are bit-identical to each other.
  EXPECT_EQ(problem.primal_duality_gap(beta, w, &pool2),
            problem.primal_duality_gap(beta, w, &pool4));
  EXPECT_EQ(problem.dual_duality_gap(alpha, wbar, &pool2),
            problem.dual_duality_gap(alpha, wbar, &pool4));

  // The formulation dispatcher forwards the pool.
  EXPECT_EQ(problem.duality_gap(Formulation::kDual, alpha, wbar, &pool4),
            problem.dual_duality_gap(alpha, wbar, &pool4));
}

// Padded and unpadded coordinate views describe the same coordinate: the
// padding tail repeats the last index with value zero.
TEST(RidgeProblem, CoordinateVectorPaddedVsUnpadded) {
  const auto dataset = tiny_dataset();
  const RidgeProblem problem(dataset, 0.1);
  for (const auto f : {Formulation::kPrimal, Formulation::kDual}) {
    for (Index j = 0; j < problem.num_coordinates(f); ++j) {
      const auto padded = problem.coordinate_vector(f, j);
      const auto exact = problem.coordinate_vector_unpadded(f, j);
      ASSERT_GE(padded.nnz(), exact.nnz());
      if (exact.nnz() > 0) EXPECT_EQ(padded.nnz() % 8, 0u);
      for (std::size_t k = 0; k < padded.nnz(); ++k) {
        if (k < exact.nnz()) {
          EXPECT_EQ(padded.indices[k], exact.indices[k]);
          EXPECT_EQ(padded.values[k], exact.values[k]);
        } else {
          EXPECT_EQ(padded.indices[k], exact.indices[exact.nnz() - 1]);
          EXPECT_EQ(padded.values[k], 0.0F);
        }
      }
    }
  }
}

}  // namespace
}  // namespace tpa::core
