// Golden conformance for both cluster drivers: every arm of the matrix
// (driver x formulation x aggregation x compression x faults, plus fleet,
// checkpoint/resume, reject and elastic arms) runs a short deterministic
// training — once as the default pool-dispatch model has it (serial at this
// size) and once with the workers' local epochs forced onto the driver's
// pool — and folds everything observable into one FNV-1a digest:
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

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "cluster/async_solver.hpp"
#include "cluster/dist_solver.hpp"
#include "core/cost_model.hpp"
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
enum class Compression { kOff, kOn };
enum class Scenario {
  kPlain,       // the matrix arm as configured
  kFleet,       // 2xtitanx,2xcpu:4 with the makespan split (optimize)
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
  bool forced_pool = false;  // local epochs on the driver's pool
};

void PrintTo(const Arm& arm, std::ostream* out) { *out << arm.name; }

/// A dispatch model that always builds the driver's pool (8 assumed
/// hardware threads, free dispatch), whatever the host and problem size.
core::PoolDispatchModel forced_pool() {
  core::PoolDispatchModel model;
  model.hardware_threads = 8;
  model.dispatch_seconds = 0.0;
  model.per_chunk_seconds = 0.0;
  return model;
}

/// A dispatch model that never builds one: one assumed hardware thread.
core::PoolDispatchModel forced_serial() {
  core::PoolDispatchModel model;
  model.hardware_threads = 1;
  return model;
}

/// Installs a dispatch model for the current scope.
class ScopedDispatch {
 public:
  explicit ScopedDispatch(const core::PoolDispatchModel& model)
      : saved_(core::pool_dispatch()) {
    core::set_pool_dispatch(model);
  }
  ScopedDispatch(const ScopedDispatch&) = delete;
  ScopedDispatch& operator=(const ScopedDispatch&) = delete;
  ~ScopedDispatch() { core::set_pool_dispatch(saved_); }

 private:
  core::PoolDispatchModel saved_;
};

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
  config.compress_deltas = arm.compression == Compression::kOn;
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
    host_threads_ = std::max(host_threads_, solver.host_threads());
  }
  std::uint64_t value() const { return hash_.digest(); }
  bool saw(core::ClusterEventKind kind) const {
    return kinds_seen_.count(kind) > 0;
  }
  /// Most host threads any digested solver ran its local epochs on (not
  /// hashed: where the epochs run must not move a bit).
  int host_threads() const { return host_threads_; }

 private:
  sparse::Fnv1a hash_;
  std::set<core::ClusterEventKind> kinds_seen_;
  int host_threads_ = 0;
};

std::string temp_path(const std::string& arm) {
  return (std::filesystem::temp_directory_path() /
          ("tpa_conformance_" + arm + ".tpam"))
      .string();
}

/// Runs kRounds rounds; a resumed arm runs half of them with a checkpoint
/// every 2 rounds, then a fresh solver restored from the files runs the
/// rest.
template <typename SolverT, typename ConfigT>
void run_arm(const ConfigT& config, const std::string& name, bool resume,
             Digest& digest) {
  if (!resume) {
    SolverT solver(corpus(), config);
    digest.put_trace(solver.run(run_options(kRounds)));
    digest.put_solver(solver);
    return;
  }
  const std::string path = temp_path(name);
  SolverT first(corpus(), config);
  digest.put_trace(first.run(run_options(kRounds / 2), {path, 2}));
  digest.put_solver(first);
  digest.put_file(path);
  digest.put_file(async_state_path(path));
  SolverT resumed(corpus(), config);
  resumed.restore_files(path);
  std::remove(path.c_str());
  std::remove(async_state_path(path).c_str());
  digest.put_trace(resumed.run(run_options(kRounds)));
  digest.put_solver(resumed);
}

void run_sync(const Arm& arm, Digest& digest) {
  run_arm<DistributedSolver>(make_config<DistConfig>(arm), arm.name,
                             arm.scenario == Scenario::kResume, digest);
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
  run_arm<AsyncSolver>(config, arm.name, arm.scenario == Scenario::kResume,
                       digest);
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
      {Compression::kOff, "raw"}, {Compression::kOn, "quantized"}};
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
// The primal arms were re-recorded when the serial primal gap moved from
// a CSR scatter to per-column dots (one gap order, serial or pooled); each
// equals the value the drivers gave before with their pooled column-dot gap.
// The twelve sync_*_faults arms and sync_checkpoint_resume were re-recorded
// when barrier rounds moved onto the one event loop: their restarts and late
// deltas follow the timeline, and their resume replays the fault history
// through the .async sidecar (DESIGN.md §8), which also carries the late
// delta in flight at the checkpoint.  Every other arm held.  The two
// *_fleet_optimize arms were re-recorded when the exact makespan split
// replaced the seeded annealer: their partition sizes moved from
// {115, 122, 10, 9} to {118, 118, 10, 10}, a 3.0% cheaper priced round.
const std::map<std::string, std::uint64_t>& golden() {
  static const std::map<std::string, std::uint64_t> digests = {
      {"sync_primal_averaging_raw_clean", 0x00b00da6d4e6d9dcULL},
      {"sync_primal_averaging_raw_faults", 0x2395ca97b3bd02e5ULL},
      {"sync_primal_averaging_quantized_clean", 0xb15097790b75dc88ULL},
      {"sync_primal_averaging_quantized_faults", 0x0896eba1505805e7ULL},
      {"sync_primal_adaptive_raw_clean", 0xc5beb75fbe5dd402ULL},
      {"sync_primal_adaptive_raw_faults", 0x345b7c09c2dcb7a2ULL},
      {"sync_primal_adaptive_quantized_clean", 0x59693f6ae4683e1bULL},
      {"sync_primal_adaptive_quantized_faults", 0x330e898c95f43c18ULL},
      {"sync_primal_fixed_raw_clean", 0x26722299f7c8bd03ULL},
      {"sync_primal_fixed_raw_faults", 0x93dc4e7a54a40b49ULL},
      {"sync_primal_fixed_quantized_clean", 0x7757f584d9701c09ULL},
      {"sync_primal_fixed_quantized_faults", 0x09e8c1f6d76e8ed1ULL},
      {"sync_dual_averaging_raw_clean", 0x5d4119b1959cb671ULL},
      {"sync_dual_averaging_raw_faults", 0xff8719bea1ab950cULL},
      {"sync_dual_averaging_quantized_clean", 0xb9625f4bd205ecfcULL},
      {"sync_dual_averaging_quantized_faults", 0xfb758d680470f3f2ULL},
      {"sync_dual_adaptive_raw_clean", 0xbca85149cbadbd0eULL},
      {"sync_dual_adaptive_raw_faults", 0x3c28c118d3296073ULL},
      {"sync_dual_adaptive_quantized_clean", 0x6bae31bde86fabdcULL},
      {"sync_dual_adaptive_quantized_faults", 0x9de2931043e9f69bULL},
      {"sync_dual_fixed_raw_clean", 0x95996a23e64cfd89ULL},
      {"sync_dual_fixed_raw_faults", 0x774ec84513f8767dULL},
      {"sync_dual_fixed_quantized_clean", 0x52668264826324dbULL},
      {"sync_dual_fixed_quantized_faults", 0x02d39b25342f1ae9ULL},
      {"sync_fleet_optimize", 0x87766ded9d7667a0ULL},
      {"sync_checkpoint_resume", 0xd38f1cb6f714982fULL},
      {"async_primal_averaging_raw_clean", 0x932f4004cde79442ULL},
      {"async_primal_averaging_raw_faults", 0x8e8c09c7a9d22332ULL},
      {"async_primal_averaging_quantized_clean", 0xe9019a8cf0268ad4ULL},
      {"async_primal_averaging_quantized_faults", 0x7d28ed76474e563eULL},
      {"async_primal_adaptive_raw_clean", 0x8e98ff2c05e667a6ULL},
      {"async_primal_adaptive_raw_faults", 0x6a59813fc8f04f24ULL},
      {"async_primal_adaptive_quantized_clean", 0x4e5a7b826a7475e3ULL},
      {"async_primal_adaptive_quantized_faults", 0x3b4d8481d8afdcd2ULL},
      {"async_primal_fixed_raw_clean", 0x8bfee0700bf2c88cULL},
      {"async_primal_fixed_raw_faults", 0x70da45d728c79e61ULL},
      {"async_primal_fixed_quantized_clean", 0xef24972f6e995cc7ULL},
      {"async_primal_fixed_quantized_faults", 0x6d5b07bfd24a759bULL},
      {"async_dual_averaging_raw_clean", 0x4f192f2d26f1e5b6ULL},
      {"async_dual_averaging_raw_faults", 0x632f2ed9d349c3b6ULL},
      {"async_dual_averaging_quantized_clean", 0x8310d95c7c11c3b0ULL},
      {"async_dual_averaging_quantized_faults", 0xd5a6a35423c0afcdULL},
      {"async_dual_adaptive_raw_clean", 0x6038d64a0b78c50fULL},
      {"async_dual_adaptive_raw_faults", 0xb3195e57ec1e93d6ULL},
      {"async_dual_adaptive_quantized_clean", 0x553be202543492b6ULL},
      {"async_dual_adaptive_quantized_faults", 0xc5864ff3235df613ULL},
      {"async_dual_fixed_raw_clean", 0x79b4edf770f47c76ULL},
      {"async_dual_fixed_raw_faults", 0xde4a920871b78bebULL},
      {"async_dual_fixed_quantized_clean", 0x58068b298979d4d0ULL},
      {"async_dual_fixed_quantized_faults", 0x7d46e6253d6fcbc8ULL},
      {"async_fleet_optimize", 0x17850871bc693fc2ULL},
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
    if (GetParam().forced_pool) dispatch_.emplace(forced_pool());
  }
  void TearDown() override {
    dispatch_.reset();
    linalg::set_kernel_backend(backend_);
    linalg::set_shared_precision(precision_);
  }

 private:
  linalg::KernelBackend backend_{};
  linalg::SharedPrecision precision_{};
  std::optional<ScopedDispatch> dispatch_;
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
      // A resume lands the delta still in flight at the checkpoint.
      EXPECT_TRUE(digest.saw(Kind::kLateDelta));
    }
  }
  if (arm.scenario == Scenario::kReject) {
    EXPECT_TRUE(digest.saw(Kind::kStaleRejected));
  }
  if (arm.scenario == Scenario::kLeaveJoin) {
    EXPECT_TRUE(digest.saw(Kind::kLeave));
    EXPECT_TRUE(digest.saw(Kind::kJoin));
  }
  // At 256 x 512 the default dispatch model keeps the driver serial on any
  // host, so the forced arms are the ones that reach the pool.
  if (arm.forced_pool) {
    EXPECT_GT(digest.host_threads(), 1);
  } else {
    EXPECT_EQ(digest.host_threads(), 1);
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

std::vector<Arm> forced_pool_arms() {
  auto out = arms();
  for (auto& arm : out) arm.forced_pool = true;
  return out;
}

// The same matrix with every driver's pool forced on, against the same
// digests: at this size the default model keeps every arm serial.
INSTANTIATE_TEST_SUITE_P(
    ForcedPool, ClusterConformance, ::testing::ValuesIn(forced_pool_arms()),
    [](const ::testing::TestParamInfo<Arm>& info) { return info.param.name; });

// --- Pooled ≡ serial ----------------------------------------------------------

struct PoolArm {
  std::string name;
  Driver driver = Driver::kSync;
  Formulation formulation = Formulation::kDual;
  bool fleet = false;  // 2xtitanx,2xcpu:4: a cpu:4 slot runs its own pool
};

void PrintTo(const PoolArm& arm, std::ostream* out) { *out << arm.name; }

/// Compressed deltas, scripted crash / stall / drop / corrupt, adaptive γ,
/// a checkpoint and resume; without a barrier also a scripted leave and
/// join.
Digest pool_arm_digest(const PoolArm& arm) {
  Arm base;
  base.formulation = arm.formulation;
  base.aggregation = AggregationMode::kAdaptive;
  base.compression = Compression::kOn;
  base.faults = true;
  base.scenario = arm.fleet ? Scenario::kFleet : Scenario::kPlain;
  const std::string name = "pooled_" + arm.name;
  Digest digest;
  if (arm.driver == Driver::kSync) {
    run_arm<DistributedSolver>(make_config<DistConfig>(base), name,
                               /*resume=*/true, digest);
  } else {
    auto config = make_config<AsyncConfig>(base);
    config.membership = {{3, 1, MembershipEvent::Kind::kLeave},
                         {5, 1, MembershipEvent::Kind::kJoin}};
    run_arm<AsyncSolver>(config, name, /*resume=*/true, digest);
  }
  return digest;
}

class ClusterPool : public ::testing::TestWithParam<PoolArm> {};

// Where the local epochs run moves no bit: the digest (trajectory, events,
// wire bytes, final model, attribution and checkpoint bytes) of a run whose
// driver has no pool equals that of a run whose driver builds every worker
// and runs every cycle on its pool.
TEST_P(ClusterPool, PooledRunEqualsSerialRun) {
  const PoolArm& arm = GetParam();
  const Digest serial = [&] {
    const ScopedDispatch dispatch(forced_serial());
    return pool_arm_digest(arm);
  }();
  const Digest pooled = [&] {
    const ScopedDispatch dispatch(forced_pool());
    return pool_arm_digest(arm);
  }();
  EXPECT_EQ(serial.host_threads(), 1);
  EXPECT_EQ(pooled.host_threads(), 4);
  EXPECT_EQ(pooled.value(), serial.value());
  // The scripted faults fired, so the comparison covers their paths.
  using Kind = core::ClusterEventKind;
  for (const Kind kind : {Kind::kCrash, Kind::kDeltaCorrupted}) {
    EXPECT_TRUE(serial.saw(kind)) << core::cluster_event_name(kind);
  }
  if (arm.driver == Driver::kAsync) {
    EXPECT_TRUE(serial.saw(Kind::kLeave));
    EXPECT_TRUE(serial.saw(Kind::kJoin));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ClusterPool,
    ::testing::Values(
        PoolArm{"sync_primal", Driver::kSync, Formulation::kPrimal},
        PoolArm{"sync_dual", Driver::kSync, Formulation::kDual},
        PoolArm{"async_primal", Driver::kAsync, Formulation::kPrimal},
        PoolArm{"async_dual", Driver::kAsync, Formulation::kDual},
        PoolArm{"sync_fleet", Driver::kSync, Formulation::kDual, true},
        PoolArm{"async_fleet", Driver::kAsync, Formulation::kDual, true}),
    [](const ::testing::TestParamInfo<PoolArm>& info) {
      return info.param.name;
    });

// --- Shared validation: NaN must fail every check ---------------------------

template <typename SolverT, typename ConfigT>
void expect_shared_validation() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
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
