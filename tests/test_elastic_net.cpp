// Elastic-net loss: soft-thresholding, lasso sparsity, KKT optimality,
// monotone descent and the warm-started path, all through make_solver.  The
// η = 0 ≡ ridge bit-exactness lives in test_loss_conformance.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/elastic_net.hpp"
#include "core/solver_factory.hpp"
#include "data/generators.hpp"
#include "linalg/vector_ops.hpp"

namespace tpa::core {
namespace {

const data::Dataset& dataset() {
  static const data::Dataset d = [] {
    data::WebspamLikeConfig config;
    config.num_examples = 512;
    config.num_features = 256;
    config.model_density = 0.1;  // sparse ground truth for selection tests
    return data::make_webspam_like(config);
  }();
  return d;
}

std::unique_ptr<Solver> primal_solver(const RidgeProblem& problem,
                                      std::uint64_t seed,
                                      SolverKind kind = SolverKind::kSequential,
                                      int threads = 16) {
  SolverConfig config;
  config.kind = kind;
  config.formulation = Formulation::kPrimal;
  config.threads = threads;
  config.seed = seed;
  return make_solver(problem, config);
}

double objective(const RidgeProblem& problem, const Solver& solver) {
  return problem.primal_objective(solver.state().weights,
                                  solver.state().shared);
}

std::size_t zero_coefficients(const Solver& solver) {
  std::size_t zeros = 0;
  for (const auto b : solver.state().weights) {
    if (b == 0.0F) ++zeros;
  }
  return zeros;
}

TEST(ElasticNet, RejectsBadParameters) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(RidgeProblem(dataset(), 0.0, Loss::elastic_net(0.5)),
               std::invalid_argument);
  EXPECT_THROW(RidgeProblem(dataset(), 0.1, Loss::elastic_net(-0.1)),
               std::invalid_argument);
  EXPECT_THROW(RidgeProblem(dataset(), 0.1, Loss::elastic_net(1.5)),
               std::invalid_argument);
  EXPECT_THROW(RidgeProblem(dataset(), 0.1, Loss::elastic_net(nan)),
               std::invalid_argument);
}

TEST(ElasticNet, SoftThresholdOperator) {
  // A = [1], N = 1, λ = 1, η = 1: the threshold Nλη is 1 and the L2 share
  // is 0, so from β = 0 the step is soft_threshold(⟨y − w, a⟩, 1).
  sparse::CsrMatrix matrix(1, 1, {0, 1}, {0}, {1.0F});
  const data::Dataset unit("unit", std::move(matrix), {0.0F});
  const RidgeProblem problem(unit, 1.0, Loss::elastic_net(1.0));
  const auto step = [&](double dot) {
    return problem.closed_form_delta(Formulation::kPrimal, 0, dot, 0.0);
  };
  EXPECT_EQ(step(3.0), 2.0);
  EXPECT_EQ(step(-3.0), -2.0);
  EXPECT_EQ(step(0.5), 0.0);
  EXPECT_EQ(step(-0.5), 0.0);
  EXPECT_EQ(step(1.0), 0.0);
}

TEST(ElasticNet, ObjectiveDecreasesMonotonically) {
  const RidgeProblem problem(dataset(), 0.01, Loss::elastic_net(0.5));
  const auto solver = primal_solver(problem, 1);
  double previous = objective(problem, *solver);
  for (int epoch = 0; epoch < 10; ++epoch) {
    solver->run_epoch();
    const double current = objective(problem, *solver);
    EXPECT_LE(current, previous + 1e-9);
    previous = current;
  }
}

TEST(ElasticNet, KktViolationVanishesAtConvergence) {
  const RidgeProblem problem(dataset(), 0.01, Loss::elastic_net(0.5));
  const auto solver = primal_solver(problem, 2);
  for (int epoch = 0; epoch < 60; ++epoch) solver->run_epoch();
  EXPECT_LT(solver->duality_gap(problem), 1e-4);
}

TEST(ElasticNet, LassoProducesSparsityRidgeDoesNot) {
  const RidgeProblem lasso(dataset(), 0.02, Loss::elastic_net(1.0));
  const RidgeProblem ridge(dataset(), 0.02, Loss::elastic_net(0.0));
  const auto lasso_solver = primal_solver(lasso, 3);
  const auto ridge_solver = primal_solver(ridge, 3);
  for (int epoch = 0; epoch < 30; ++epoch) {
    lasso_solver->run_epoch();
    ridge_solver->run_epoch();
  }
  EXPECT_GT(zero_coefficients(*lasso_solver), dataset().num_features() / 4);
  EXPECT_GT(zero_coefficients(*lasso_solver),
            2 * zero_coefficients(*ridge_solver));
}

TEST(ElasticNet, SparsityGrowsWithL1Ratio) {
  std::size_t previous_zeros = 0;
  for (const double eta : {0.2, 0.6, 1.0}) {
    const RidgeProblem problem(dataset(), 0.02, Loss::elastic_net(eta));
    const auto solver = primal_solver(problem, 4);
    for (int epoch = 0; epoch < 30; ++epoch) solver->run_epoch();
    EXPECT_GE(zero_coefficients(*solver) + 8, previous_zeros) << "eta " << eta;
    previous_zeros = zero_coefficients(*solver);
  }
}

TEST(ElasticNet, AsyncWindowStillConverges) {
  // Async execution needs a realistically sized problem relative to the
  // concurrency window (cf. gpusim::DeviceSpec::async_staleness).
  data::WebspamLikeConfig config;
  config.num_examples = 2048;
  config.num_features = 4096;
  const auto big = data::make_webspam_like(config);
  const RidgeProblem problem(big, 0.01, Loss::elastic_net(0.5));
  const auto sequential = primal_solver(problem, 6);
  // 48 atomic lanes: TPA-style execution.
  const auto async = primal_solver(problem, 6, SolverKind::kAsyncAtomic, 48);
  for (int epoch = 0; epoch < 40; ++epoch) {
    sequential->run_epoch();
    async->run_epoch();
  }
  EXPECT_LT(async->duality_gap(problem), 1e-3);
  EXPECT_NEAR(objective(problem, *async), objective(problem, *sequential),
              1e-3);
}

TEST(ElasticNet, SharedVectorTracksBeta) {
  const RidgeProblem problem(dataset(), 0.01, Loss::elastic_net(0.7));
  const auto solver = primal_solver(problem, 7);
  for (int epoch = 0; epoch < 5; ++epoch) solver->run_epoch();
  // w must remain A·beta up to float rounding.
  const auto expected =
      linalg::csr_matvec(dataset().by_row(), solver->state().weights);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(solver->state().shared[i], expected[i], 1e-3);
  }
}

TEST(ElasticNetPath, LambdaMaxZeroesEveryCoefficient) {
  const double lambda_max = elastic_net_lambda_max(dataset(), 1.0);
  EXPECT_GT(lambda_max, 0.0);
  const RidgeProblem problem(dataset(), lambda_max * 1.0001,
                             Loss::elastic_net(1.0));
  const auto solver = primal_solver(problem, 1);
  for (int epoch = 0; epoch < 10; ++epoch) solver->run_epoch();
  EXPECT_EQ(zero_coefficients(*solver), dataset().num_features());
}

TEST(ElasticNetPath, SupportGrowsDownThePath) {
  PathOptions options;
  options.l1_ratio = 1.0;
  options.num_lambdas = 8;
  options.lambda_min_ratio = 1e-2;
  const auto path = elastic_net_path(dataset(), options);
  ASSERT_EQ(path.size(), 8u);
  // The first point sits at lambda_max: empty (or near-empty) model; the
  // support can only grow (weakly) as lambda decreases on this data.
  EXPECT_LE(path.front().nonzeros, 2u);
  EXPECT_GT(path.back().nonzeros, path.front().nonzeros);
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_LT(path[i].lambda, path[i - 1].lambda);
  }
}

TEST(ElasticNetPath, WarmStartMatchesColdSolve) {
  PathOptions options;
  options.l1_ratio = 0.8;
  options.num_lambdas = 6;
  options.lambda_min_ratio = 0.05;
  options.epochs_per_lambda = 30;
  const auto path = elastic_net_path(dataset(), options);
  // Cold-solving the final lambda must land on the same objective the
  // warm-started path reached (the path is a speed trick, not a different
  // estimator).
  const RidgeProblem problem(dataset(), path.back().lambda,
                             Loss::elastic_net(0.8));
  const auto cold = primal_solver(problem, 99);
  for (int epoch = 0; epoch < 200; ++epoch) cold->run_epoch();
  EXPECT_NEAR(path.back().objective, objective(problem, *cold),
              1e-4 + 1e-3 * std::abs(objective(problem, *cold)));
}

TEST(ElasticNetPath, RejectsBadParameters) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(elastic_net_lambda_max(dataset(), 0.0),
               std::invalid_argument);
  EXPECT_THROW(elastic_net_lambda_max(dataset(), nan), std::invalid_argument);
  PathOptions bad;
  bad.l1_ratio = 0.0;
  EXPECT_THROW(elastic_net_path(dataset(), bad), std::invalid_argument);
  PathOptions bad_grid;
  bad_grid.num_lambdas = 1;
  EXPECT_THROW(elastic_net_path(dataset(), bad_grid),
               std::invalid_argument);
  PathOptions nan_ratio;
  nan_ratio.lambda_min_ratio = nan;
  EXPECT_THROW(elastic_net_path(dataset(), nan_ratio),
               std::invalid_argument);
  PathOptions nan_l1;
  nan_l1.l1_ratio = nan;
  EXPECT_THROW(elastic_net_path(dataset(), nan_l1), std::invalid_argument);
}

}  // namespace
}  // namespace tpa::core
