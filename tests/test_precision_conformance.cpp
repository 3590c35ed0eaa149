// Golden conformance for both shared-vector storage precisions (DESIGN.md
// §16): every solver that runs the replicated pipeline, plus the control
// paths that must ignore the precision mode, trains for three epochs and
// folds into one FNV-1a digest
//   - the final weights and shared vector;
//   - each epoch's sim_seconds (TPA prices its shared-vector bytes by
//     precision, so the simulated clock is part of the contract).
// Arms cover primal and dual x fp32 and fp16 under the scalar kernel
// backend, and the fp16 arms again under the vectorized backend.  The
// vectorized reductions reassociate in fp64, which at this size never moves
// a float-rounded weight, so those digests equal the scalar ones; the arms
// are there to run the vectorized fp16 bodies end to end.
//
// The expected digests were recorded before the fp16 twins of the kernels,
// the coordinate step, the replicated engine and ReplicaSet were folded into
// their fp32 bodies, so any refactor that moves one bit of either
// instantiation fails here by arm name.  The repthreads and streaming
// digests were re-recorded when every replicated path moved onto
// core::replicated_sweep's strided lanes; every other digest held.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/dist_solver.hpp"
#include "core/cost_model.hpp"
#include "core/seq_scd.hpp"
#include "core/threaded_scd.hpp"
#include "core/tpa_scd.hpp"
#include "data/generators.hpp"
#include "linalg/half.hpp"
#include "linalg/kernels.hpp"
#include "sparse/io_binary.hpp"
#include "store/streaming_dataset.hpp"
#include "store/streaming_solver.hpp"

namespace tpa::core {
namespace {

using linalg::KernelBackend;
using linalg::SharedPrecision;

constexpr int kEpochs = 3;
constexpr std::uint64_t kSeed = 7;
constexpr double kLambda = 1e-3;

const data::Dataset& corpus() {
  static const data::Dataset dataset = [] {
    data::WebspamLikeConfig config;
    config.num_examples = 512;
    config.num_features = 1024;
    config.seed = 2025;
    return data::make_webspam_like(config);
  }();
  return dataset;
}

enum class Kind {
  kSeq,               // control: no replicas, ignores the precision mode
  kRep16,             // ThreadedScdSolver kReplicated, 16 lanes, auto
  kRep1,              // ThreadedScdSolver kReplicated, 1 lane, merge_every 1
  kRepThreadsInline,  // ThreadedScdSolver kReplicated, 4 threads, inline
  kRepThreadsPooled,  // same, rounds forced onto the pool
  kTpaBatched,        // TPA-SCD Titan X, merge_every 2
  kTpaAtomic,         // control: TPA-SCD Titan X, float-atomic write-back
  kStreaming,         // store::StreamingScdSolver, 4 threads (dual only)
  kClusterTpa,        // sync cluster, 4 TPA M4000 workers, merge_every 1
};

struct Arm {
  std::string name;
  Kind kind = Kind::kSeq;
  Formulation formulation = Formulation::kDual;
  SharedPrecision precision = SharedPrecision::kFp32;
  KernelBackend backend = KernelBackend::kScalar;
};

void PrintTo(const Arm& arm, std::ostream* out) { *out << arm.name; }

/// Restores the process-wide dispatch model on scope exit.
struct DispatchGuard {
  PoolDispatchModel saved = pool_dispatch();
  ~DispatchGuard() { set_pool_dispatch(saved); }
};

class Digest {
 public:
  void put(double value) { hash_.update(&value, sizeof(value)); }
  void put(std::span<const float> values) {
    const std::size_t size = values.size();
    hash_.update(&size, sizeof(size));
    if (!values.empty()) hash_.update(values.data(), values.size_bytes());
  }
  std::uint64_t value() const { return hash_.digest(); }

 private:
  sparse::Fnv1a hash_;
};

void run_solver(Solver& solver, Digest& digest) {
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    digest.put(solver.run_epoch().sim_seconds);
  }
  digest.put(solver.state().weights);
  digest.put(solver.state().shared);
}

void run_threaded(const RidgeProblem& problem, const Arm& arm,
                  Digest& digest) {
  const DispatchGuard guard;
  PoolDispatchModel model;
  if (arm.kind == Kind::kRepThreadsPooled) {
    model.hardware_threads = 8;  // the pool always wins
    model.dispatch_seconds = 0.0;
    model.per_chunk_seconds = 0.0;
  } else {
    model.hardware_threads = 1;  // the pool never wins: inline rounds
  }
  set_pool_dispatch(model);
  ThreadedScdSolver solver(problem, arm.formulation, 4,
                           CommitPolicy::kReplicated, kSeed);
  run_solver(solver, digest);
}

void run_streaming(Digest& digest) {
  const sparse::LabeledMatrix data{
      corpus().by_row(),
      std::vector<float>(corpus().labels().begin(), corpus().labels().end())};
  store::MemoryShardedDataset source("precision", data, 4);
  store::StreamingConfig config;
  config.lambda = kLambda;
  config.seed = kSeed;
  config.threads = 4;
  store::StreamingScdSolver solver(source, config);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    digest.put(solver.run_epoch().sim_seconds);
  }
  digest.put(solver.alpha());
  digest.put(solver.shared());
}

void run_cluster(const Arm& arm, Digest& digest) {
  cluster::DistConfig config;
  config.formulation = arm.formulation;
  config.num_workers = 4;
  config.local_solver.kind = SolverKind::kTpaM4000;
  config.local_solver.merge_every = 1;
  config.lambda = kLambda;
  config.seed = 31;
  cluster::DistributedSolver solver(corpus(), config);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    digest.put(solver.run_epoch().sim_seconds);
  }
  digest.put(solver.global_weights());
  digest.put(solver.global_shared());
}

std::uint64_t run_arm(const Arm& arm) {
  const RidgeProblem problem(corpus(), kLambda);
  Digest digest;
  switch (arm.kind) {
    case Kind::kSeq: {
      SeqScdSolver solver(problem, arm.formulation, kSeed);
      run_solver(solver, digest);
      break;
    }
    case Kind::kRep16: {
      ThreadedScdSolver solver(problem, arm.formulation, 16,
                               CommitPolicy::kReplicated, kSeed);
      run_solver(solver, digest);
      break;
    }
    case Kind::kRep1: {
      ThreadedScdSolver solver(problem, arm.formulation, 1,
                               CommitPolicy::kReplicated, kSeed);
      solver.set_merge_every(1);
      run_solver(solver, digest);
      break;
    }
    case Kind::kRepThreadsInline:
    case Kind::kRepThreadsPooled:
      run_threaded(problem, arm, digest);
      break;
    case Kind::kTpaBatched:
    case Kind::kTpaAtomic: {
      TpaScdOptions options;
      options.device = gpusim::DeviceSpec::titan_x();
      options.merge_every = arm.kind == Kind::kTpaBatched ? 2 : 0;
      TpaScdSolver solver(problem, arm.formulation, kSeed, options);
      run_solver(solver, digest);
      break;
    }
    case Kind::kStreaming:
      run_streaming(digest);
      break;
    case Kind::kClusterTpa:
      run_cluster(arm, digest);
      break;
  }
  return digest.value();
}

struct KindName {
  Kind kind;
  const char* name;
};

constexpr KindName kKinds[] = {
    {Kind::kSeq, "seq"},
    {Kind::kRep16, "rep16"},
    {Kind::kRep1, "rep1"},
    {Kind::kRepThreadsInline, "repthreads_inline"},
    {Kind::kRepThreadsPooled, "repthreads_pooled"},
    {Kind::kTpaBatched, "tpa_merge2"},
    {Kind::kTpaAtomic, "tpa_atomic"},
    {Kind::kStreaming, "streaming"},
    {Kind::kClusterTpa, "cluster_tpa"},
};

std::vector<Arm> arms() {
  std::vector<Arm> out;
  struct Mode {
    KernelBackend backend;
    SharedPrecision precision;
    const char* name;
  };
  const Mode modes[] = {
      {KernelBackend::kScalar, SharedPrecision::kFp32, "fp32_scalar"},
      {KernelBackend::kScalar, SharedPrecision::kFp16, "fp16_scalar"},
      {KernelBackend::kVectorized, SharedPrecision::kFp16, "fp16_vec"},
  };
  const std::pair<Formulation, const char*> forms[] = {
      {Formulation::kPrimal, "primal"}, {Formulation::kDual, "dual"}};
  for (const auto& mode : modes) {
    for (const auto& [kind, kname] : kKinds) {
      for (const auto& [form, fname] : forms) {
        // Streaming is dual-only: the primal needs column access across
        // the whole matrix.
        if (kind == Kind::kStreaming && form == Formulation::kPrimal) continue;
        Arm arm;
        arm.name = std::string(kname) + "_" + fname + "_" + mode.name;
        arm.kind = kind;
        arm.formulation = form;
        arm.precision = mode.precision;
        arm.backend = mode.backend;
        out.push_back(arm);
      }
    }
  }
  return out;
}

const std::map<std::string, std::uint64_t>& golden() {
  static const std::map<std::string, std::uint64_t> digests = {
      {"seq_primal_fp32_scalar", 0xda655736c86cf451ULL},
      {"seq_dual_fp32_scalar", 0x4a4a351c3d4b5d10ULL},
      {"rep16_primal_fp32_scalar", 0x9b3aff187b1922e1ULL},
      {"rep16_dual_fp32_scalar", 0xca7608f72342e12dULL},
      {"rep1_primal_fp32_scalar", 0xda655736c86cf451ULL},
      {"rep1_dual_fp32_scalar", 0x4a4a351c3d4b5d10ULL},
      {"repthreads_inline_primal_fp32_scalar", 0xf583063181885046ULL},
      {"repthreads_inline_dual_fp32_scalar", 0xd7dae389a09f5942ULL},
      {"repthreads_pooled_primal_fp32_scalar", 0xf583063181885046ULL},
      {"repthreads_pooled_dual_fp32_scalar", 0xd7dae389a09f5942ULL},
      {"tpa_merge2_primal_fp32_scalar", 0x44aace2a0685ac64ULL},
      {"tpa_merge2_dual_fp32_scalar", 0x9afb4b4843b38d91ULL},
      {"tpa_atomic_primal_fp32_scalar", 0xf88d6c1683ec4ddeULL},
      {"tpa_atomic_dual_fp32_scalar", 0xee94b9c94b81678dULL},
      {"streaming_dual_fp32_scalar", 0x26ef650ab5b03ab4ULL},
      {"cluster_tpa_primal_fp32_scalar", 0x1ab85dce66192251ULL},
      {"cluster_tpa_dual_fp32_scalar", 0xbbd48a66ed4440d0ULL},
      {"seq_primal_fp16_scalar", 0xda655736c86cf451ULL},
      {"seq_dual_fp16_scalar", 0x4a4a351c3d4b5d10ULL},
      {"rep16_primal_fp16_scalar", 0x13239974e339b086ULL},
      {"rep16_dual_fp16_scalar", 0x5a6a4d6526e54066ULL},
      {"rep1_primal_fp16_scalar", 0x33b018b01fc27c70ULL},
      {"rep1_dual_fp16_scalar", 0x2d0b49cf52f88d63ULL},
      {"repthreads_inline_primal_fp16_scalar", 0x1d528463cee2247bULL},
      {"repthreads_inline_dual_fp16_scalar", 0x8a7eb483fca1d793ULL},
      {"repthreads_pooled_primal_fp16_scalar", 0x1d528463cee2247bULL},
      {"repthreads_pooled_dual_fp16_scalar", 0x8a7eb483fca1d793ULL},
      {"tpa_merge2_primal_fp16_scalar", 0xf5888d12b288e406ULL},
      {"tpa_merge2_dual_fp16_scalar", 0x7f529bbfa85beea0ULL},
      {"tpa_atomic_primal_fp16_scalar", 0xf88d6c1683ec4ddeULL},
      {"tpa_atomic_dual_fp16_scalar", 0xee94b9c94b81678dULL},
      {"streaming_dual_fp16_scalar", 0x985483f4b29d7574ULL},
      {"cluster_tpa_primal_fp16_scalar", 0x863a0e3b6531822aULL},
      {"cluster_tpa_dual_fp16_scalar", 0x3cebc7561b4cea7dULL},
      {"seq_primal_fp16_vec", 0xda655736c86cf451ULL},
      {"seq_dual_fp16_vec", 0x4a4a351c3d4b5d10ULL},
      {"rep16_primal_fp16_vec", 0x13239974e339b086ULL},
      {"rep16_dual_fp16_vec", 0x5a6a4d6526e54066ULL},
      {"rep1_primal_fp16_vec", 0x33b018b01fc27c70ULL},
      {"rep1_dual_fp16_vec", 0x2d0b49cf52f88d63ULL},
      {"repthreads_inline_primal_fp16_vec", 0x1d528463cee2247bULL},
      {"repthreads_inline_dual_fp16_vec", 0x8a7eb483fca1d793ULL},
      {"repthreads_pooled_primal_fp16_vec", 0x1d528463cee2247bULL},
      {"repthreads_pooled_dual_fp16_vec", 0x8a7eb483fca1d793ULL},
      {"tpa_merge2_primal_fp16_vec", 0xf5888d12b288e406ULL},
      {"tpa_merge2_dual_fp16_vec", 0x7f529bbfa85beea0ULL},
      {"tpa_atomic_primal_fp16_vec", 0xf88d6c1683ec4ddeULL},
      {"tpa_atomic_dual_fp16_vec", 0xee94b9c94b81678dULL},
      {"streaming_dual_fp16_vec", 0x985483f4b29d7574ULL},
      {"cluster_tpa_primal_fp16_vec", 0x863a0e3b6531822aULL},
      {"cluster_tpa_dual_fp16_vec", 0x3cebc7561b4cea7dULL},
  };
  return digests;
}

class PrecisionConformance : public ::testing::TestWithParam<Arm> {
 protected:
  void SetUp() override {
    backend_ = linalg::kernel_backend();
    precision_ = linalg::shared_precision();
    linalg::set_kernel_backend(GetParam().backend);
    linalg::set_shared_precision(GetParam().precision);
  }
  void TearDown() override {
    linalg::set_kernel_backend(backend_);
    linalg::set_shared_precision(precision_);
  }

 private:
  KernelBackend backend_{};
  SharedPrecision precision_{};
};

TEST_P(PrecisionConformance, DigestMatchesGolden) {
  const Arm& arm = GetParam();
  const std::uint64_t actual = run_arm(arm);
  const auto it = golden().find(arm.name);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                static_cast<unsigned long long>(actual));
  ASSERT_NE(it, golden().end())
      << "no golden digest for " << arm.name << "; got {\"" << arm.name
      << "\", " << hex << "},";
  EXPECT_EQ(it->second, actual) << arm.name << " digest is now " << hex;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PrecisionConformance, ::testing::ValuesIn(arms()),
    [](const ::testing::TestParamInfo<Arm>& info) { return info.param.name; });

// DESIGN.md §16, read off the table itself: fp16 storage exists only in the
// replicated pipeline, so it must leave the sequential and float-atomic TPA
// digests alone and move every replicated one.
TEST(PrecisionTable, Fp16MovesOnlyTheReplicatedPipeline) {
  for (const auto& [kind, kname] : kKinds) {
    for (const char* form : {"primal", "dual"}) {
      const std::string stem = std::string(kname) + "_" + form;
      const auto fp32 = golden().find(stem + "_fp32_scalar");
      if (fp32 == golden().end()) continue;  // streaming is dual-only
      const bool control = kind == Kind::kSeq || kind == Kind::kTpaAtomic;
      EXPECT_EQ(golden().at(stem + "_fp16_scalar") == fp32->second, control)
          << stem;
    }
  }
}

}  // namespace
}  // namespace tpa::core
