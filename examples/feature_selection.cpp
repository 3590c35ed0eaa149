// Feature selection and classification — the paper's named extensions.
//
// Sections I-II of the paper note that the same stochastic coordinate
// machinery solves "regression with elastic net regularization as well as
// support vector machines".  This example exercises both extensions on one
// corpus:
//   1. an elastic-net path over the L1 ratio, showing how sparsity grows
//      and which features survive selection, and
//   2. an SVM trained by SDCA on sign labels, with its duality gap closing
//      just like the ridge pipeline's.
// Both are losses of core::RidgeProblem, so any make_solver kind runs them:
// sequential SCD by default, TPA-SCD on the simulated Titan X with --gpu.
//
//   ./feature_selection [--examples N] [--features M] [--lambda L] [--gpu]
#include <cstdio>

#include "core/elastic_net.hpp"
#include "core/metrics.hpp"
#include "core/solver_factory.hpp"
#include "data/generators.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace tpa;

  util::ArgParser parser("feature_selection",
                         "elastic-net path + SVM training (paper Sect. II "
                         "extensions)");
  parser.add_option("examples", "number of training examples", "4096");
  parser.add_option("features", "number of features", "8192");
  parser.add_option("lambda", "regularisation strength", "0.01");
  parser.add_option("epochs", "epochs per solve", "40");
  parser.add_flag("gpu", "run TPA-SCD on the simulated Titan X");
  if (!parser.parse(argc, argv)) return 1;

  data::WebspamLikeConfig config;
  config.num_examples =
      static_cast<data::Index>(parser.get_int("examples", 4096));
  config.num_features =
      static_cast<data::Index>(parser.get_int("features", 8192));
  config.model_density = 0.05;  // few truly informative features
  const auto dataset = data::make_webspam_like(config);

  const double lambda = parser.get_double("lambda", 0.01);
  const int epochs = static_cast<int>(parser.get_int("epochs", 40));
  core::SolverConfig solver_config;
  solver_config.kind = parser.get_bool("gpu") ? core::SolverKind::kTpaTitanX
                                              : core::SolverKind::kSequential;
  std::printf("dataset %u x %u, lambda %.3g, solver %s\n",
              dataset.num_examples(), dataset.num_features(), lambda,
              core::solver_kind_name(solver_config.kind));

  // --- 1. Elastic-net regularisation path over the L1 ratio. ---
  std::printf("\nelastic-net path:\n  l1-ratio  non-zeros  objective   "
              "kkt-violation\n");
  solver_config.formulation = core::Formulation::kPrimal;
  solver_config.seed = 3;
  for (const double eta : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const core::RidgeProblem problem(dataset, lambda,
                                     core::Loss::elastic_net(eta));
    const auto solver = core::make_solver(problem, solver_config);
    for (int epoch = 0; epoch < epochs; ++epoch) solver->run_epoch();
    const auto& state = solver->state();
    std::size_t nonzeros = 0;
    for (const float b : state.weights) nonzeros += b != 0.0F ? 1 : 0;
    std::printf("  %8.2f  %9zu  %.6f  %.3e\n", eta, nonzeros,
                problem.primal_objective(state.weights, state.shared),
                solver->duality_gap(problem));
  }
  std::printf("  (eta = 0 is ridge: every coefficient active; eta = 1 is "
              "the lasso: only informative features survive)\n");

  // --- 1b. A glmnet-style lambda path with warm starts (ref. [4] of the
  //     paper): the whole model family for barely more than one solve. ---
  core::PathOptions path_options;
  path_options.l1_ratio = 1.0;
  path_options.num_lambdas = 8;
  path_options.lambda_min_ratio = 1e-2;
  const auto path = core::elastic_net_path(dataset, path_options);
  std::printf("\nlasso lambda path (warm-started):\n  lambda      non-zeros\n");
  for (const auto& point : path) {
    std::printf("  %.4e  %zu\n", point.lambda, point.nonzeros);
  }

  // --- 2. SVM via SDCA on sign labels. ---
  std::vector<float> signs(dataset.labels().begin(), dataset.labels().end());
  for (auto& y : signs) y = y >= 0.0F ? 1.0F : -1.0F;
  const data::Dataset classes("svm_corpus", dataset.by_row(),
                              std::move(signs));
  const core::RidgeProblem svm(classes, 1e-3, core::Loss::hinge());
  solver_config.formulation = core::Formulation::kDual;
  solver_config.seed = 4;
  const auto sdca = core::make_solver(svm, solver_config);
  std::printf("\nSVM (SDCA, hinge loss):\n  epoch  duality-gap  accuracy\n");
  for (int epoch = 1; epoch <= epochs; ++epoch) {
    sdca->run_epoch();
    if (epoch % 10 == 0 || epoch == 1) {
      const auto predictions = core::predict(
          classes, svm.primal_from_dual_shared(sdca->state().shared));
      std::printf("  %5d  %.3e    %.2f%%\n", epoch, sdca->duality_gap(svm),
                  100.0 * core::sign_accuracy(predictions, classes.labels()));
    }
  }
  return 0;
}
