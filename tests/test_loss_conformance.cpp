// Loss conformance: every loss of RidgeProblem under every make_solver kind.
//   - At η = 0 the elastic net is ridge primal bit for bit — weights, shared
//     vector and each epoch's sim_seconds — on every deterministic kind ×
//     fp32/fp16 shared-vector storage × scalar/vectorized kernels (24 arms).
//   - The elastic net (η = 0.5) and the hinge loss converge under all eight
//     kinds at both storage precisions.  Wild's lost updates leave both
//     losses a floor, as they do for ridge, so their two Wild kinds assert
//     only a finite measure (and, for the hinge, a feasible dual); the
//     simulated Wild kind, being deterministic, must show its floor in the
//     elastic net's KKT measure.
//   - A loss without the requested formulation is refused by every kind.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/solver_factory.hpp"
#include "data/generators.hpp"
#include "linalg/half.hpp"
#include "linalg/kernels.hpp"

namespace tpa::core {
namespace {

using linalg::KernelBackend;
using linalg::SharedPrecision;

constexpr SolverKind kAllKinds[] = {
    SolverKind::kSequential,         SolverKind::kAsyncAtomic,
    SolverKind::kAsyncWild,          SolverKind::kThreadedAtomic,
    SolverKind::kThreadedWild,       SolverKind::kThreadedReplicated,
    SolverKind::kTpaM4000,           SolverKind::kTpaTitanX,
};

// The kinds whose trajectory is a pure function of the seed: all but the
// real-thread atomic and wild races.
constexpr SolverKind kDeterministicKinds[] = {
    SolverKind::kSequential,         SolverKind::kAsyncAtomic,
    SolverKind::kAsyncWild,          SolverKind::kThreadedReplicated,
    SolverKind::kTpaM4000,           SolverKind::kTpaTitanX,
};

/// Selects a kernel backend and shared-vector precision for one scope.
class ModeGuard {
 public:
  ModeGuard(KernelBackend backend, SharedPrecision precision)
      : backend_(linalg::kernel_backend()),
        precision_(linalg::shared_precision()) {
    linalg::set_kernel_backend(backend);
    linalg::set_shared_precision(precision);
  }
  ~ModeGuard() {
    linalg::set_kernel_backend(backend_);
    linalg::set_shared_precision(precision_);
  }
  ModeGuard(const ModeGuard&) = delete;
  ModeGuard& operator=(const ModeGuard&) = delete;

 private:
  KernelBackend backend_;
  SharedPrecision precision_;
};

std::vector<std::uint32_t> bits(const std::vector<float>& values) {
  std::vector<std::uint32_t> out(values.size());
  if (!values.empty()) {
    std::memcpy(out.data(), values.data(), values.size() * sizeof(float));
  }
  return out;
}

std::unique_ptr<Solver> solver_for(const RidgeProblem& problem,
                                   SolverKind kind, Formulation f,
                                   std::uint64_t seed) {
  SolverConfig config;
  config.kind = kind;
  config.formulation = f;
  config.seed = seed;
  return make_solver(problem, config);
}

const data::Dataset& regression_corpus() {
  static const data::Dataset d = [] {
    data::WebspamLikeConfig config;
    config.num_examples = 512;
    config.num_features = 1024;
    config.model_density = 0.05;
    return data::make_webspam_like(config);
  }();
  return d;
}

const data::Dataset& sign_corpus() {
  static const data::Dataset d = [] {
    data::WebspamLikeConfig config;
    config.num_examples = 512;
    config.num_features = 256;
    config.noise_sigma = 0.02;
    const auto corpus = data::make_webspam_like(config);
    std::vector<float> signs(corpus.labels().begin(), corpus.labels().end());
    for (auto& y : signs) y = y >= 0.0F ? 1.0F : -1.0F;
    return data::Dataset("svm_corpus", corpus.by_row(), std::move(signs));
  }();
  return d;
}

// Replaces the 1e-5 tolerance this test once had: same seed, same
// permutations, and at η = 0 the soft-threshold step performs eq. (2)'s
// floating-point operations exactly.
TEST(ElasticNet, ZeroL1RatioMatchesRidgeTrajectory) {
  const RidgeProblem ridge(regression_corpus(), 0.01);
  const RidgeProblem en(regression_corpus(), 0.01, Loss::elastic_net(0.0));
  for (const auto kind : kDeterministicKinds) {
    for (const auto precision : {SharedPrecision::kFp32,
                                 SharedPrecision::kFp16}) {
      for (const auto backend : {KernelBackend::kScalar,
                                 KernelBackend::kVectorized}) {
        SCOPED_TRACE(std::string(solver_kind_name(kind)) + " " +
                     linalg::shared_precision_name(precision) + " " +
                     linalg::kernel_backend_name(backend));
        const ModeGuard guard(backend, precision);
        const auto a = solver_for(ridge, kind, Formulation::kPrimal, 5);
        const auto b = solver_for(en, kind, Formulation::kPrimal, 5);
        for (int epoch = 0; epoch < 5; ++epoch) {
          EXPECT_EQ(a->run_epoch().sim_seconds, b->run_epoch().sim_seconds);
        }
        EXPECT_EQ(bits(a->state().weights), bits(b->state().weights));
        EXPECT_EQ(bits(a->state().shared), bits(b->state().shared));
      }
    }
  }
}

struct ConvergenceArm {
  LossKind loss = LossKind::kElasticNet;
  SolverKind kind = SolverKind::kSequential;
  SharedPrecision precision = SharedPrecision::kFp32;
};

std::string arm_name(const ConvergenceArm& arm) {
  std::string name = arm.loss == LossKind::kHinge ? "hinge_" : "elastic_net_";
  for (const char c : std::string(solver_kind_name(arm.kind))) {
    name += c == '-' ? '_' : c;
  }
  return name + (arm.precision == SharedPrecision::kFp16 ? "_fp16" : "_fp32");
}

void PrintTo(const ConvergenceArm& arm, std::ostream* out) {
  *out << arm_name(arm);
}

std::vector<ConvergenceArm> convergence_arms() {
  std::vector<ConvergenceArm> arms;
  for (const auto loss : {LossKind::kElasticNet, LossKind::kHinge}) {
    for (const auto kind : kAllKinds) {
      for (const auto precision : {SharedPrecision::kFp32,
                                   SharedPrecision::kFp16}) {
        arms.push_back({loss, kind, precision});
      }
    }
  }
  return arms;
}

bool wild(SolverKind kind) {
  return kind == SolverKind::kAsyncWild || kind == SolverKind::kThreadedWild;
}

class LossConvergence : public ::testing::TestWithParam<ConvergenceArm> {};

TEST_P(LossConvergence, ReachesItsBoundAfterFortyEpochs) {
  const ConvergenceArm& arm = GetParam();
  const ModeGuard guard(linalg::kernel_backend(), arm.precision);
  const bool hinge = arm.loss == LossKind::kHinge;
  const RidgeProblem problem =
      hinge ? RidgeProblem(sign_corpus(), 1e-2, Loss::hinge())
            : RidgeProblem(regression_corpus(), 0.01, Loss::elastic_net(0.5));
  const auto solver =
      solver_for(problem, arm.kind,
                 hinge ? Formulation::kDual : Formulation::kPrimal, 11);
  for (int epoch = 0; epoch < 40; ++epoch) solver->run_epoch();
  const double gap = solver->duality_gap(problem);
  ASSERT_TRUE(std::isfinite(gap));
  if (hinge) {
    const auto& weights = solver->state().weights;
    for (std::size_t n = 0; n < weights.size(); ++n) {
      const double alpha = sign_corpus().labels()[n] * weights[n];
      ASSERT_GE(alpha, 0.0) << n;
      ASSERT_LE(alpha, 1.0) << n;
    }
  }
  if (wild(arm.kind)) return;
  if (hinge) {
    // Measured: ≤ 1.6e-7 at fp32 (seq 1.2e-8), ≤ 1.2e-4 with fp16 replicas.
    EXPECT_LT(gap, arm.precision == SharedPrecision::kFp16 ? 1e-3 : 5e-6);
  } else {
    // Measured max KKT violation at w = Aβ: ≤ 1.5e-8, except 7.7e-5 with
    // fp16 replicas.
    EXPECT_LT(gap, arm.precision == SharedPrecision::kFp16 &&
                           arm.kind == SolverKind::kThreadedReplicated
                       ? 5e-4
                       : 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LossConvergence, ::testing::ValuesIn(convergence_arms()),
    [](const ::testing::TestParamInfo<ConvergenceArm>& info) {
      return arm_name(info.param);
    });

// Wild's lost updates drift the shared vector from Aβ, and the iteration
// settles where each coordinate is stationary for the drifted vector.  The
// KKT measure is taken at the recomputed Aβ, so that bias shows: the gap
// floors well above the atomic solver's, as the ridge dual's does.
TEST(LossValidation, WildElasticNetKktShowsItsDrift) {
  const RidgeProblem problem(regression_corpus(), 0.01,
                             Loss::elastic_net(0.5));
  const auto wild =
      solver_for(problem, SolverKind::kAsyncWild, Formulation::kPrimal, 11);
  const auto atomic =
      solver_for(problem, SolverKind::kAsyncAtomic, Formulation::kPrimal, 11);
  for (int epoch = 0; epoch < 40; ++epoch) {
    wild->run_epoch();
    atomic->run_epoch();
  }
  EXPECT_GT(wild->state().shared_inconsistency(problem), 1e-4);
  // Measured: 1.3e-2 against 7.1e-9.
  EXPECT_GT(wild->duality_gap(problem), 100.0 * atomic->duality_gap(problem));
}

TEST(LossValidation, EveryKindRefusesAMissingFormulation) {
  const RidgeProblem en(regression_corpus(), 0.01, Loss::elastic_net(0.5));
  const RidgeProblem hinge(sign_corpus(), 1e-2, Loss::hinge());
  for (const auto kind : kAllKinds) {
    SCOPED_TRACE(solver_kind_name(kind));
    EXPECT_THROW(solver_for(en, kind, Formulation::kDual, 1),
                 std::invalid_argument);
    EXPECT_THROW(solver_for(hinge, kind, Formulation::kPrimal, 1),
                 std::invalid_argument);
    EXPECT_NO_THROW(solver_for(en, kind, Formulation::kPrimal, 1));
    EXPECT_NO_THROW(solver_for(hinge, kind, Formulation::kDual, 1));
  }
  // {0, 1} labels are the usual slip; the hinge loss needs ±1.
  std::vector<float> bits01(sign_corpus().labels().begin(),
                            sign_corpus().labels().end());
  for (auto& y : bits01) y = y > 0.0F ? 1.0F : 0.0F;
  const data::Dataset zero_one("zero_one", sign_corpus().by_row(),
                               std::move(bits01));
  EXPECT_THROW(RidgeProblem(zero_one, 1e-2, Loss::hinge()),
               std::invalid_argument);
}

}  // namespace
}  // namespace tpa::core
