// Hinge loss (SVM by SDCA) through make_solver: duality gap closure, box
// feasibility of the signed dual, margin behaviour, and async-window
// execution.
#include <gtest/gtest.h>

#include <memory>

#include "core/metrics.hpp"
#include "core/solver_factory.hpp"
#include "data/generators.hpp"
#include "linalg/vector_ops.hpp"

namespace tpa::core {
namespace {

data::Dataset sign_labelled_corpus(data::Index examples,
                                   data::Index features) {
  data::WebspamLikeConfig config;
  config.num_examples = examples;
  config.num_features = features;
  config.noise_sigma = 0.02;
  auto corpus = data::make_webspam_like(config);
  std::vector<float> signs(corpus.labels().begin(), corpus.labels().end());
  for (auto& y : signs) y = y >= 0.0F ? 1.0F : -1.0F;
  return data::Dataset("svm_corpus", corpus.by_row(), std::move(signs));
}

const data::Dataset& corpus() {
  static const data::Dataset d = sign_labelled_corpus(512, 256);
  return d;
}

std::unique_ptr<Solver> dual_solver(const RidgeProblem& problem,
                                    std::uint64_t seed,
                                    SolverKind kind = SolverKind::kSequential,
                                    int threads = 16) {
  SolverConfig config;
  config.kind = kind;
  config.formulation = Formulation::kDual;
  config.threads = threads;
  config.seed = seed;
  return make_solver(problem, config);
}

/// True iff every αₙ = yₙβₙ lies in the box [0, 1].
bool alpha_in_box(const Solver& solver, double tolerance = 1e-6) {
  const auto& weights = solver.state().weights;
  for (std::size_t n = 0; n < weights.size(); ++n) {
    const double a = corpus().labels()[n] * static_cast<double>(weights[n]);
    if (a < -tolerance || a > 1.0 + tolerance) return false;
  }
  return true;
}

/// The primal weight vector v = w̄/(λN).
std::vector<float> primal_weights(const RidgeProblem& problem,
                                  const Solver& solver) {
  return problem.primal_from_dual_shared(solver.state().shared);
}

TEST(SvmProblem, RejectsBadInputs) {
  EXPECT_THROW(RidgeProblem(corpus(), 0.0, Loss::hinge()),
               std::invalid_argument);
  data::DenseGaussianConfig config;
  config.num_examples = 8;
  config.num_features = 4;
  const auto real_labels = data::make_dense_gaussian(config);
  EXPECT_THROW(RidgeProblem(real_labels, 0.1, Loss::hinge()),
               std::invalid_argument);
}

TEST(SvmProblem, GapIsNonNegativeFromTheStart) {
  const RidgeProblem problem(corpus(), 1e-2, Loss::hinge());
  const std::vector<float> beta(problem.num_examples(), 0.0F);
  const std::vector<float> wbar(problem.num_features(), 0.0F);
  // At alpha = 0, v = 0: P = 1 (all hinge losses active), D = 0.
  EXPECT_NEAR(problem.duality_gap(Formulation::kDual, beta, wbar), 1.0, 1e-6);
}

TEST(SvmDualSolver, GapShrinksTowardsZero) {
  const RidgeProblem problem(corpus(), 1e-2, Loss::hinge());
  const auto solver = dual_solver(problem, 1);
  const double initial = solver->duality_gap(problem);
  for (int epoch = 0; epoch < 60; ++epoch) solver->run_epoch();
  // Weak duality on the signed difference: duality_gap reports |P − D|.
  const auto v = primal_weights(problem, *solver);
  const auto w = linalg::csr_matvec(corpus().by_row(), v);
  EXPECT_GE(problem.primal_objective(v, w) -
                problem.dual_objective(solver->state().weights,
                                       solver->state().shared),
            -1e-6);
  EXPECT_LT(solver->duality_gap(problem), initial * 0.02);
}

TEST(SvmDualSolver, AlphaStaysInBox) {
  const RidgeProblem problem(corpus(), 1e-3, Loss::hinge());
  const auto solver = dual_solver(problem, 2);
  for (int epoch = 0; epoch < 20; ++epoch) {
    solver->run_epoch();
    EXPECT_TRUE(alpha_in_box(*solver));
  }
}

TEST(SvmDualSolver, WeightsStayConsistentWithAlpha) {
  const RidgeProblem problem(corpus(), 1e-2, Loss::hinge());
  const auto solver = dual_solver(problem, 3);
  for (int epoch = 0; epoch < 10; ++epoch) solver->run_epoch();
  // v == 1/(lambda N) * sum_n alpha_n y_n x_n up to float rounding, with
  // alpha_n y_n the solver's signed weight.
  const auto n = static_cast<double>(problem.num_examples());
  std::vector<float> scaled(problem.num_examples());
  for (data::Index i = 0; i < problem.num_examples(); ++i) {
    scaled[i] = static_cast<float>(solver->state().weights[i] /
                                   (problem.lambda() * n));
  }
  const auto expected =
      linalg::csr_matvec_transposed(corpus().by_row(), scaled);
  const auto v = primal_weights(problem, *solver);
  for (std::size_t m = 0; m < expected.size(); ++m) {
    EXPECT_NEAR(v[m], expected[m], 1e-3);
  }
}

TEST(SvmDualSolver, LearnsToClassifyTheTrainingSet) {
  const RidgeProblem problem(corpus(), 1e-3, Loss::hinge());
  const auto solver = dual_solver(problem, 4);
  for (int epoch = 0; epoch < 40; ++epoch) solver->run_epoch();
  const auto predictions = predict(corpus(), primal_weights(problem, *solver));
  EXPECT_GT(sign_accuracy(predictions, corpus().labels()), 0.9);
}

TEST(SvmDualSolver, AsyncWindowMatchesSequentialQuality) {
  const RidgeProblem problem(corpus(), 1e-2, Loss::hinge());
  const auto sequential = dual_solver(problem, 5);
  // 48 atomic lanes: TPA-style execution.
  const auto async = dual_solver(problem, 5, SolverKind::kAsyncAtomic, 48);
  for (int epoch = 0; epoch < 40; ++epoch) {
    sequential->run_epoch();
    async->run_epoch();
  }
  EXPECT_TRUE(alpha_in_box(*async, 1e-4));
  EXPECT_NEAR(async->duality_gap(problem), sequential->duality_gap(problem),
              5e-3);
}

TEST(SvmDualSolver, StrongerRegularisationShrinksWeights) {
  const RidgeProblem weak(corpus(), 1e-3, Loss::hinge());
  const RidgeProblem strong(corpus(), 1.0, Loss::hinge());
  const auto weak_solver = dual_solver(weak, 6);
  const auto strong_solver = dual_solver(strong, 6);
  for (int epoch = 0; epoch < 20; ++epoch) {
    weak_solver->run_epoch();
    strong_solver->run_epoch();
  }
  const auto strong_v = primal_weights(strong, *strong_solver);
  const auto weak_v = primal_weights(weak, *weak_solver);
  EXPECT_LT(linalg::squared_norm(std::span<const float>(strong_v)),
            linalg::squared_norm(std::span<const float>(weak_v)));
}

TEST(SvmDualSolver, EpochReportsWork) {
  const RidgeProblem problem(corpus(), 1e-2, Loss::hinge());
  const auto solver = dual_solver(problem, 7);
  const auto report = solver->run_epoch();
  EXPECT_EQ(report.coordinate_updates, problem.num_examples());
  EXPECT_GT(report.sim_seconds, 0.0);
}

}  // namespace
}  // namespace tpa::core
