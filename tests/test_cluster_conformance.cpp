// Golden conformance for both cluster drivers: every arm of the matrix
// (driver x formulation x aggregation x compression x faults, plus fleet,
// checkpoint/resume, reject and elastic arms) runs a short deterministic
// training and folds everything observable into one FNV-1a digest:
//   - the final global_weights() and global_shared();
//   - per round: gap, γ, contributors and sim_seconds;
//   - the event list, delta_bytes_on_wire() and the six attribution totals;
//   - for the checkpoint arms, the bytes of the written .tpam (and .async).
// The expected digests were recorded from the drivers before they were
// rebuilt on one shared master, so any refactor that moves a single bit of
// the trajectory, the event stream, the wire accounting, the simulated clock
// or the checkpoint format fails here by arm name.  Runs pin the scalar
// kernel backend and fp32 shared precision, the bit-exact reference path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "cluster/async_solver.hpp"
#include "cluster/dist_solver.hpp"
#include "data/generators.hpp"
#include "linalg/half.hpp"
#include "linalg/kernels.hpp"
#include "sparse/io_binary.hpp"

namespace tpa::cluster {
namespace {

using core::Formulation;

constexpr int kRounds = 8;

const data::Dataset& corpus() {
  static const data::Dataset dataset = [] {
    data::WebspamLikeConfig config;
    config.num_examples = 256;
    config.num_features = 512;
    config.seed = 2024;
    return data::make_webspam_like(config);
  }();
  return dataset;
}

enum class Driver { kSync, kAsync };
enum class Compression { kOff, kOn, kThreshold };
enum class Scenario {
  kPlain,       // the matrix arm as configured
  kFleet,       // 2xtitanx,2xcpu:4 with the annealer (optimize)
  kResume,      // checkpoint mid-run through files, resume a fresh solver
  kReject,      // async: stale deltas rejected under a tight window
  kLeaveJoin,   // async: scripted leave then join
};

struct Arm {
  std::string name;
  Driver driver = Driver::kSync;
  Formulation formulation = Formulation::kDual;
  AggregationMode aggregation = AggregationMode::kAveraging;
  Compression compression = Compression::kOff;
  bool faults = false;
  Scenario scenario = Scenario::kPlain;
};

void PrintTo(const Arm& arm, std::ostream* out) { *out << arm.name; }

FaultConfig scripted_faults() {
  FaultConfig faults;
  const auto event = [](int epoch, int worker, FaultKind kind) {
    FaultEvent e;
    e.epoch = epoch;
    e.worker = worker;
    e.kind = kind;
    return e;
  };
  faults.scripted = {event(2, 1, FaultKind::kCrash),
                     event(3, 2, FaultKind::kStall),
                     event(4, 0, FaultKind::kDropDelta),
                     event(5, 3, FaultKind::kCorruptDelta)};
  return faults;
}

template <typename ConfigT>
ConfigT make_config(const Arm& arm) {
  ConfigT config;
  config.formulation = arm.formulation;
  config.num_workers = 4;
  config.aggregation = arm.aggregation;
  config.fixed_gamma = 0.3;
  config.local_solver.kind = core::SolverKind::kSequential;
  config.lambda = 1e-3;
  config.seed = 31;
  config.compress_deltas = arm.compression != Compression::kOff;
  config.delta_threshold = arm.compression == Compression::kThreshold ? 0.1
                                                                      : 0.0;
  if (arm.faults) config.faults = scripted_faults();
  if (arm.scenario == Scenario::kFleet) {
    config.fleet = placement::parse_fleet_spec("2xtitanx,2xcpu:4");
    config.placement = placement::PlacementMode::kOptimize;
    config.network = NetworkModel::pcie_peer();
  }
  return config;
}

core::RunOptions run_options(int max_epochs) {
  core::RunOptions options;
  options.max_epochs = max_epochs;
  options.target_gap = 0.0;
  options.record_interval = 1;
  options.gap_every = 1;
  options.gap_threads = 1;
  return options;
}

class Digest {
 public:
  template <typename T>
  void put(const T& value) {
    hash_.update(&value, sizeof(value));
  }
  template <typename T>
  void put_vector(const std::vector<T>& values) {
    put(values.size());
    if (!values.empty()) {
      hash_.update(values.data(), values.size() * sizeof(T));
    }
  }
  void put_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "cannot open " << path;
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    put_vector(bytes);
  }
  void put_trace(const core::ConvergenceTrace& trace) {
    put(trace.points().size());
    for (const auto& point : trace.points()) {
      put(point.epoch);
      put(point.gap);
      put(point.gamma);
      put(point.contributors);
      put(point.sim_seconds);
    }
  }
  template <typename SolverT>
  void put_solver(const SolverT& solver) {
    put_vector(solver.global_weights());
    put_vector(solver.global_shared());
    put(solver.events().size());
    for (const auto& event : solver.events()) {
      kinds_seen_.insert(event.kind);
      put(event.epoch);
      put(event.worker);
      put(static_cast<int>(event.kind));
    }
    put(solver.delta_bytes_on_wire());
    const auto& totals = solver.attribution_totals();
    put(totals.compute_seconds);
    put(totals.host_seconds);
    put(totals.pcie_seconds);
    put(totals.network_seconds);
    put(totals.straggler_wait_seconds);
    put(totals.stale_overhead_seconds);
  }
  std::uint64_t value() const { return hash_.digest(); }
  bool saw(core::ClusterEventKind kind) const {
    return kinds_seen_.count(kind) > 0;
  }

 private:
  sparse::Fnv1a hash_;
  std::set<core::ClusterEventKind> kinds_seen_;
};

std::string temp_path(const std::string& arm) {
  return (std::filesystem::temp_directory_path() /
          ("tpa_conformance_" + arm + ".tpam"))
      .string();
}

void run_sync(const Arm& arm, Digest& digest) {
  const auto config = make_config<DistConfig>(arm);
  if (arm.scenario == Scenario::kResume) {
    const std::string path = temp_path(arm.name);
    DistributedSolver first(corpus(), config);
    digest.put_trace(
        run_distributed(first, run_options(kRounds / 2), {path, 2}));
    digest.put_solver(first);
    digest.put_file(path);
    DistributedSolver resumed(corpus(), config);
    resumed.restore(core::read_model_file(path));
    std::remove(path.c_str());
    digest.put_trace(run_distributed(resumed, run_options(kRounds)));
    digest.put_solver(resumed);
    return;
  }
  DistributedSolver solver(corpus(), config);
  digest.put_trace(run_distributed(solver, run_options(kRounds)));
  digest.put_solver(solver);
}

void run_async_arm(const Arm& arm, Digest& digest) {
  auto config = make_config<AsyncConfig>(arm);
  if (arm.scenario == Scenario::kReject) {
    config.staleness_window = 1;
    config.staleness_policy = StalenessPolicy::kReject;
  }
  if (arm.scenario == Scenario::kLeaveJoin) {
    config.membership = {{3, 1, MembershipEvent::Kind::kLeave},
                         {5, 1, MembershipEvent::Kind::kJoin}};
  }
  if (arm.scenario == Scenario::kResume) {
    const std::string path = temp_path(arm.name);
    AsyncSolver first(corpus(), config);
    digest.put_trace(run_async(first, run_options(kRounds / 2), {path, 2}));
    digest.put_solver(first);
    digest.put_file(path);
    digest.put_file(async_state_path(path));
    AsyncSolver resumed(corpus(), config);
    resumed.restore_files(path);
    std::remove(path.c_str());
    std::remove(async_state_path(path).c_str());
    digest.put_trace(run_async(resumed, run_options(kRounds)));
    digest.put_solver(resumed);
    return;
  }
  AsyncSolver solver(corpus(), config);
  digest.put_trace(run_async(solver, run_options(kRounds)));
  digest.put_solver(solver);
}

std::vector<Arm> arms() {
  std::vector<Arm> out;
  const std::pair<Driver, const char*> drivers[] = {{Driver::kSync, "sync"},
                                                    {Driver::kAsync, "async"}};
  const std::pair<Formulation, const char*> forms[] = {
      {Formulation::kPrimal, "primal"}, {Formulation::kDual, "dual"}};
  const std::pair<AggregationMode, const char*> modes[] = {
      {AggregationMode::kAveraging, "averaging"},
      {AggregationMode::kAdaptive, "adaptive"},
      {AggregationMode::kFixed, "fixed"}};
  const std::pair<Compression, const char*> codecs[] = {
      {Compression::kOff, "raw"},
      {Compression::kOn, "quantized"},
      {Compression::kThreshold, "sparse"}};
  for (const auto& [driver, dname] : drivers) {
    for (const auto& [form, fname] : forms) {
      for (const auto& [mode, mname] : modes) {
        for (const auto& [codec, cname] : codecs) {
          for (const bool faults : {false, true}) {
            Arm arm;
            arm.name = std::string(dname) + "_" + fname + "_" + mname + "_" +
                       cname + (faults ? "_faults" : "_clean");
            arm.driver = driver;
            arm.formulation = form;
            arm.aggregation = mode;
            arm.compression = codec;
            arm.faults = faults;
            out.push_back(arm);
          }
        }
      }
    }
    Arm fleet;
    fleet.name = std::string(dname) + "_fleet_optimize";
    fleet.driver = driver;
    fleet.aggregation = AggregationMode::kAdaptive;
    fleet.scenario = Scenario::kFleet;
    out.push_back(fleet);

    Arm resume;
    resume.name = std::string(dname) + "_checkpoint_resume";
    resume.driver = driver;
    resume.aggregation = AggregationMode::kAdaptive;
    resume.compression = Compression::kOn;
    resume.faults = true;
    resume.scenario = Scenario::kResume;
    out.push_back(resume);
  }
  Arm reject;
  reject.name = "async_reject";
  reject.driver = Driver::kAsync;
  reject.faults = true;
  reject.scenario = Scenario::kReject;
  out.push_back(reject);

  Arm elastic;
  elastic.name = "async_leave_join";
  elastic.driver = Driver::kAsync;
  elastic.aggregation = AggregationMode::kAdaptive;
  elastic.scenario = Scenario::kLeaveJoin;
  out.push_back(elastic);
  return out;
}

// Recorded from the two standalone drivers (scalar kernels, fp32 shared).
const std::map<std::string, std::uint64_t>& golden() {
  static const std::map<std::string, std::uint64_t> digests = {
      {"sync_primal_averaging_raw_clean", 0xbcc1b7fbe9e75424ULL},
      {"sync_primal_averaging_raw_faults", 0x474be6bfbc60d2caULL},
      {"sync_primal_averaging_quantized_clean", 0xc06bdd232324d262ULL},
      {"sync_primal_averaging_quantized_faults", 0x7bed506457e3c759ULL},
      {"sync_primal_averaging_sparse_clean", 0x30b3d3a70a2ea33dULL},
      {"sync_primal_averaging_sparse_faults", 0x96b2770c5d50edadULL},
      {"sync_primal_adaptive_raw_clean", 0xea52353fe087d3c5ULL},
      {"sync_primal_adaptive_raw_faults", 0x26a12978e02539ccULL},
      {"sync_primal_adaptive_quantized_clean", 0x721ccca26f01a88cULL},
      {"sync_primal_adaptive_quantized_faults", 0x061f1c232a80e5d0ULL},
      {"sync_primal_adaptive_sparse_clean", 0x3ca22d678df88008ULL},
      {"sync_primal_adaptive_sparse_faults", 0x20814fe82ce4511fULL},
      {"sync_primal_fixed_raw_clean", 0x63e23f5773b13075ULL},
      {"sync_primal_fixed_raw_faults", 0xd6d1c6da16ed49fbULL},
      {"sync_primal_fixed_quantized_clean", 0x8a9bcf2afba90edcULL},
      {"sync_primal_fixed_quantized_faults", 0x404e063377c10d9dULL},
      {"sync_primal_fixed_sparse_clean", 0xa39ec20a825fe427ULL},
      {"sync_primal_fixed_sparse_faults", 0xc9bac1541b51e9e1ULL},
      {"sync_dual_averaging_raw_clean", 0x5d4119b1959cb671ULL},
      {"sync_dual_averaging_raw_faults", 0x83e02b42a30c758aULL},
      {"sync_dual_averaging_quantized_clean", 0xb9625f4bd205ecfcULL},
      {"sync_dual_averaging_quantized_faults", 0x24d645f01daeea4dULL},
      {"sync_dual_averaging_sparse_clean", 0x885d6bd9cdb035b2ULL},
      {"sync_dual_averaging_sparse_faults", 0xd981697e14d36675ULL},
      {"sync_dual_adaptive_raw_clean", 0xbca85149cbadbd0eULL},
      {"sync_dual_adaptive_raw_faults", 0x0dd1bfa8704d8628ULL},
      {"sync_dual_adaptive_quantized_clean", 0x6bae31bde86fabdcULL},
      {"sync_dual_adaptive_quantized_faults", 0x018e6fe46354c2e2ULL},
      {"sync_dual_adaptive_sparse_clean", 0x47ba9eb56a6d4a6cULL},
      {"sync_dual_adaptive_sparse_faults", 0xd417e578b120bfcfULL},
      {"sync_dual_fixed_raw_clean", 0x95996a23e64cfd89ULL},
      {"sync_dual_fixed_raw_faults", 0xd884aa73a412cb3bULL},
      {"sync_dual_fixed_quantized_clean", 0x52668264826324dbULL},
      {"sync_dual_fixed_quantized_faults", 0xa45aa76c2fbf4faaULL},
      {"sync_dual_fixed_sparse_clean", 0xc36d005f3001e163ULL},
      {"sync_dual_fixed_sparse_faults", 0xfffc118107d37eabULL},
      {"sync_fleet_optimize", 0xa043b20eec8105f9ULL},
      {"sync_checkpoint_resume", 0x6051f199f6ea49f7ULL},
      {"async_primal_averaging_raw_clean", 0x7f0bfc3d48d10a43ULL},
      {"async_primal_averaging_raw_faults", 0xb5ffc4a891a11a95ULL},
      {"async_primal_averaging_quantized_clean", 0x355c3b109219f791ULL},
      {"async_primal_averaging_quantized_faults", 0x330ea1c78b208b75ULL},
      {"async_primal_averaging_sparse_clean", 0x871d8288abef6f66ULL},
      {"async_primal_averaging_sparse_faults", 0x01db3710afa9db1aULL},
      {"async_primal_adaptive_raw_clean", 0xedf0a5d5169c1621ULL},
      {"async_primal_adaptive_raw_faults", 0x86f839470d501e91ULL},
      {"async_primal_adaptive_quantized_clean", 0x228bc5c03a5f97d1ULL},
      {"async_primal_adaptive_quantized_faults", 0x23f7cc588f56d803ULL},
      {"async_primal_adaptive_sparse_clean", 0x28048b40c3ec9db5ULL},
      {"async_primal_adaptive_sparse_faults", 0xcbb109a5febce2faULL},
      {"async_primal_fixed_raw_clean", 0xb78ab75cd3dda91cULL},
      {"async_primal_fixed_raw_faults", 0x2b6d1ae7551eddc3ULL},
      {"async_primal_fixed_quantized_clean", 0x71fca3b35bb2181fULL},
      {"async_primal_fixed_quantized_faults", 0x7dc58236d656b35cULL},
      {"async_primal_fixed_sparse_clean", 0xc67fcb3a4867500eULL},
      {"async_primal_fixed_sparse_faults", 0xdc2066b048f7a9a1ULL},
      {"async_dual_averaging_raw_clean", 0x4f192f2d26f1e5b6ULL},
      {"async_dual_averaging_raw_faults", 0x632f2ed9d349c3b6ULL},
      {"async_dual_averaging_quantized_clean", 0x8310d95c7c11c3b0ULL},
      {"async_dual_averaging_quantized_faults", 0xd5a6a35423c0afcdULL},
      {"async_dual_averaging_sparse_clean", 0x3de564d4b28ae74fULL},
      {"async_dual_averaging_sparse_faults", 0x129b41ac19238809ULL},
      {"async_dual_adaptive_raw_clean", 0x6038d64a0b78c50fULL},
      {"async_dual_adaptive_raw_faults", 0xb3195e57ec1e93d6ULL},
      {"async_dual_adaptive_quantized_clean", 0x553be202543492b6ULL},
      {"async_dual_adaptive_quantized_faults", 0xc5864ff3235df613ULL},
      {"async_dual_adaptive_sparse_clean", 0xa40ac788fb7a29edULL},
      {"async_dual_adaptive_sparse_faults", 0x802590d1b1db948cULL},
      {"async_dual_fixed_raw_clean", 0x79b4edf770f47c76ULL},
      {"async_dual_fixed_raw_faults", 0xde4a920871b78bebULL},
      {"async_dual_fixed_quantized_clean", 0x58068b298979d4d0ULL},
      {"async_dual_fixed_quantized_faults", 0x7d46e6253d6fcbc8ULL},
      {"async_dual_fixed_sparse_clean", 0x6c99d854a75a63e0ULL},
      {"async_dual_fixed_sparse_faults", 0x7656cb91973b0aafULL},
      {"async_fleet_optimize", 0xff12f2cb348a8707ULL},
      {"async_checkpoint_resume", 0xa54388ea73265412ULL},
      {"async_reject", 0xd541296d0d331173ULL},
      {"async_leave_join", 0x34a95419433f311aULL},
  };
  return digests;
}

class ClusterConformance : public ::testing::TestWithParam<Arm> {
 protected:
  void SetUp() override {
    backend_ = linalg::kernel_backend();
    precision_ = linalg::shared_precision();
    linalg::set_kernel_backend(linalg::KernelBackend::kScalar);
    linalg::set_shared_precision(linalg::SharedPrecision::kFp32);
  }
  void TearDown() override {
    linalg::set_kernel_backend(backend_);
    linalg::set_shared_precision(precision_);
  }

 private:
  linalg::KernelBackend backend_{};
  linalg::SharedPrecision precision_{};
};

TEST_P(ClusterConformance, DigestMatchesGolden) {
  const Arm& arm = GetParam();
  Digest digest;
  if (arm.driver == Driver::kSync) {
    run_sync(arm, digest);
  } else {
    run_async_arm(arm, digest);
  }
  // The scripted arms must exercise what they name, or the digest guards
  // nothing.
  using Kind = core::ClusterEventKind;
  if (arm.faults) {
    for (const Kind kind : {Kind::kCrash, Kind::kRestart, Kind::kDeltaDropped,
                            Kind::kDeltaCorrupted}) {
      EXPECT_TRUE(digest.saw(kind)) << core::cluster_event_name(kind);
    }
    if (arm.driver == Driver::kSync) {
      EXPECT_TRUE(digest.saw(Kind::kDeadlineMiss));
      // A resume drops the delta still in flight at the checkpoint.
      EXPECT_EQ(digest.saw(Kind::kLateDelta),
                arm.scenario != Scenario::kResume);
    }
  }
  if (arm.scenario == Scenario::kReject) {
    EXPECT_TRUE(digest.saw(Kind::kStaleRejected));
  }
  if (arm.scenario == Scenario::kLeaveJoin) {
    EXPECT_TRUE(digest.saw(Kind::kLeave));
    EXPECT_TRUE(digest.saw(Kind::kJoin));
  }
  const std::uint64_t actual = digest.value();
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
    Matrix, ClusterConformance, ::testing::ValuesIn(arms()),
    [](const ::testing::TestParamInfo<Arm>& info) { return info.param.name; });

// --- Shared validation: NaN must fail every check ---------------------------

template <typename SolverT, typename ConfigT>
void expect_shared_validation() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double threshold : {nan, inf, -0.5}) {
    ConfigT config;
    config.compress_deltas = true;
    config.delta_threshold = threshold;
    EXPECT_THROW(SolverT(corpus(), config), std::invalid_argument)
        << "delta_threshold " << threshold;
  }
  for (const double gamma : {nan, inf, -inf}) {
    ConfigT config;
    config.aggregation = AggregationMode::kFixed;
    config.fixed_gamma = gamma;
    EXPECT_THROW(SolverT(corpus(), config), std::invalid_argument)
        << "fixed_gamma " << gamma;
  }
  ConfigT unused_gamma;  // fixed_gamma is only read under kFixed
  unused_gamma.fixed_gamma = nan;
  EXPECT_NO_THROW(SolverT(corpus(), unused_gamma));
}

TEST(ClusterValidation, SyncRejectsNonFiniteKnobs) {
  expect_shared_validation<DistributedSolver, DistConfig>();
  DistConfig config;
  config.straggler_grace = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(DistributedSolver(corpus(), config), std::invalid_argument);
}

TEST(ClusterValidation, AsyncRejectsNonFiniteKnobs) {
  expect_shared_validation<AsyncSolver, AsyncConfig>();
}

}  // namespace
}  // namespace tpa::cluster
