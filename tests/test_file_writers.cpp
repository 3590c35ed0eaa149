// The five checksummed or manifest file formats — .tpam models, TPSC
// streaming checkpoints, .async sidecars, TPA1 shards and store manifests —
// and the CSV and JSONL convergence tables share one commit rule: `path`
// only ever names a complete file.  These tests pin each format's on-disk
// bytes and check that a write the filesystem refuses part-way throws,
// keeps the previous file and leaves no `.tmp` behind.
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/async_solver.hpp"
#include "core/convergence.hpp"
#include "core/model_io.hpp"
#include "sparse/io_binary.hpp"
#include "store/checkpoint.hpp"
#include "store/format.hpp"

namespace tpa {
namespace {

// `variant` shifts every value, so variants 0 and 1 of a format differ in
// content but not in size.
void write_tpam(const std::string& path, int variant) {
  core::SavedModel model;
  model.formulation = core::Formulation::kDual;
  model.lambda = 1e-3 * (variant + 1);
  model.epoch = 7U + static_cast<std::uint32_t>(variant);
  for (int i = 0; i < 9; ++i) model.weights.push_back(0.5F * i + variant);
  for (int i = 0; i < 5; ++i) model.shared.push_back(-0.25F * i - variant);
  core::write_model_file(path, model);
}

void write_tpsc(const std::string& path, int variant) {
  store::StreamingCheckpoint checkpoint;
  checkpoint.epoch = 3 + static_cast<std::uint64_t>(variant);
  checkpoint.shards_done = 2;
  checkpoint.seed = 42;
  checkpoint.threads = 2;
  checkpoint.rows = 6;
  checkpoint.cols = 4;
  checkpoint.shards = 3;
  checkpoint.lambda = 2e-3;
  for (int i = 0; i < 6; ++i) checkpoint.alpha.push_back(0.125F * i + variant);
  for (int i = 0; i < 4; ++i) checkpoint.shared.push_back(1.5F * i - variant);
  store::write_checkpoint_file(path, checkpoint);
}

void write_async(const std::string& path, int variant) {
  cluster::AsyncCheckpointState state;
  state.round = 11 + static_cast<std::uint64_t>(variant);
  state.version = 29;
  state.seed = 5;
  state.workers.push_back({4, 0, 0, 0.0});
  state.workers.push_back({3, 1, 2 + static_cast<std::uint32_t>(variant),
                           12.5});
  cluster::write_async_state_file(path, state);
}

void write_tpa1(const std::string& path, int variant) {
  const float v = static_cast<float>(variant);
  sparse::LabeledMatrix data{
      sparse::CsrMatrix(3, 4, {0, 2, 3, 5}, {0, 2, 1, 0, 3},
                        {1.5F + v, -2.0F, 0.25F, 3.0F, 4.0F - v}),
      {1.0F, -1.0F, 1.0F + v}};
  sparse::write_binary_file(path, data);
}

void write_manifest(const std::string& path, int variant) {
  store::Manifest manifest;
  manifest.name = variant == 0 ? "golden" : "silver";
  manifest.rows = 6;
  manifest.cols = 4;
  manifest.nnz = 9;
  manifest.shards.push_back({0, 4, 5, 120, "golden.shard00000.tpa1"});
  manifest.shards.push_back({4, 2, 4, 96, "golden.shard00001.tpa1"});
  store::write_manifest_file(path, manifest);
}

// The convergence tables of --trace-out: a gap-vs-time CSV and its JSONL
// twin with the cluster events.
core::ConvergenceTrace make_trace(int variant) {
  core::ConvergenceTrace trace;
  for (int epoch = 1; epoch <= 4; ++epoch) {
    core::TracePoint point;
    point.epoch = epoch;
    point.gap = 1.0 / (1 << epoch) + variant;
    point.sim_seconds = 0.25 * epoch;
    point.wall_seconds = 0.125 * epoch;
    point.gamma = 0.75;
    point.contributors = 3 + variant;
    trace.add(point);
  }
  core::ClusterEvent event;
  event.epoch = 2;
  event.worker = 1 + variant;
  event.kind = core::ClusterEventKind::kCrash;
  trace.add_event(event);
  return trace;
}

void write_trace_csv(const std::string& path, int variant) {
  make_trace(variant).write_csv_file(path);
}

void write_trace_jsonl(const std::string& path, int variant) {
  make_trace(variant).write_jsonl_file(path);
}

struct Format {
  const char* name;
  std::function<void(const std::string&, int)> write;
  // Size and FNV-1a digest of variant 0's bytes.
  std::uint64_t bytes;
  std::uint64_t digest;
};

void PrintTo(const Format& format, std::ostream* os) { *os << format.name; }

// Recorded from the writers before they shared one commit path (the trace
// tables before they committed through it); a change here is a
// file-format change.
const Format kFormats[] = {
    {"tpam", write_tpam, 100, 12431858290343367251ULL},
    {"tpsc", write_tpsc, 116, 13536714870112595336ULL},
    {"async", write_async, 92, 2831085044625721577ULL},
    {"tpa1", write_tpa1, 128, 8962030479145149674ULL},
    {"manifest", write_manifest, 129, 16387029628002612992ULL},
    {"trace_csv", write_trace_csv, 149, 12931981015139769937ULL},
    {"trace_jsonl", write_trace_jsonl, 539, 832442840153600711ULL},
};

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// Runs `write` with the process's file-size limit lowered to `limit` bytes
// and SIGXFSZ ignored, so an oversized write fails with EFBIG instead of
// killing the test; both are restored before it returns.  Returns whether
// `write` threw, and stores the error's message in `message` if given.
bool throws_under_file_size_limit(rlim_t limit,
                                  const std::function<void()>& write,
                                  std::string* message = nullptr) {
  rlimit saved_limit{};
  EXPECT_EQ(getrlimit(RLIMIT_FSIZE, &saved_limit), 0);
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  struct sigaction saved_action {};
  EXPECT_EQ(sigaction(SIGXFSZ, &ignore, &saved_action), 0);
  const rlimit lowered{std::min(limit, saved_limit.rlim_cur),
                       saved_limit.rlim_max};
  EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &lowered), 0);
  bool threw = false;
  try {
    write();
  } catch (const std::runtime_error& error) {
    threw = true;
    if (message != nullptr) *message = error.what();
  }
  EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &saved_limit), 0);
  EXPECT_EQ(sigaction(SIGXFSZ, &saved_action, nullptr), 0);
  return threw;
}

class FileWriters : public ::testing::TestWithParam<Format> {
 protected:
  // One directory per test and process: ctest runs the cases of one format
  // side by side.
  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("tpa_file_writers_" + name + "_" + std::to_string(getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path() const { return (dir_ / "file").string(); }

  std::filesystem::path dir_;
};

TEST_P(FileWriters, BytesMatchTheRecordedImage) {
  GetParam().write(path(), 0);
  const auto bytes = read_bytes(path());
  EXPECT_EQ(bytes.size(), GetParam().bytes);
  EXPECT_EQ(sparse::fnv1a(bytes.data(), bytes.size()), GetParam().digest);
}

TEST_P(FileWriters, RefusedWriteThrowsAndKeepsThePreviousFile) {
  GetParam().write(path(), 0);
  const auto previous = read_bytes(path());
  ASSERT_GT(previous.size(), 40U);
  EXPECT_TRUE(throws_under_file_size_limit(
      40, [&] { GetParam().write(path(), 1); }));
  EXPECT_EQ(read_bytes(path()), previous);
  EXPECT_FALSE(std::filesystem::exists(path() + ".tmp"));
}

// The error names the file the caller asked for, not its .tmp sibling.
TEST_P(FileWriters, RefusedWriteNamesTheGivenPath) {
  std::string message;
  ASSERT_TRUE(throws_under_file_size_limit(
      40, [&] { GetParam().write(path(), 1); }, &message));
  EXPECT_TRUE(message.ends_with("write failed: " + path())) << message;
}

TEST(CommitFile, UnopenablePathIsNamedAsGiven) {
  const std::string path = (std::filesystem::path(::testing::TempDir()) /
                            ("tpa_no_such_dir_" + std::to_string(getpid())) /
                            "x.jsonl")
                               .string();
  try {
    sparse::commit_file(path, "run report", [](std::ostream&) {});
    FAIL() << "commit_file into a missing directory did not throw";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "cannot open " + path + " for writing");
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, FileWriters, ::testing::ValuesIn(kFormats),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace tpa
