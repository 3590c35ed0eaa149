// Model serialization round trips, corruption detection, and the
// cross-formulation prediction path the CLI tool relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

#include "core/metrics.hpp"
#include "core/model_io.hpp"
#include "core/seq_scd.hpp"
#include "data/generators.hpp"
#include "sparse/io_binary.hpp"

namespace tpa::core {
namespace {

SavedModel sample_model() {
  SavedModel model;
  model.formulation = Formulation::kDual;
  model.lambda = 0.025;
  model.weights = {0.5F, -1.0F, 2.0F};
  model.shared = {1.0F, 0.0F};
  return model;
}

TEST(ModelIo, StreamRoundTrip) {
  const auto model = sample_model();
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_model(stream, model);
  const auto loaded = read_model(stream);
  EXPECT_EQ(loaded.formulation, model.formulation);
  EXPECT_DOUBLE_EQ(loaded.lambda, model.lambda);
  EXPECT_EQ(loaded.weights, model.weights);
  EXPECT_EQ(loaded.shared, model.shared);
}

TEST(ModelIo, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "tpa_model_io_test.tpam")
          .string();
  const auto model = sample_model();
  write_model_file(path, model);
  const auto loaded = read_model_file(path);
  EXPECT_EQ(loaded.weights, model.weights);
  std::remove(path.c_str());
}

TEST(ModelIo, EpochCounterRoundTrips) {
  auto model = sample_model();
  model.epoch = 42;
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_model(stream, model);
  EXPECT_EQ(read_model(stream).epoch, 42u);
}

TEST(ModelIo, DefaultEpochIsZeroForPlainModels) {
  // Pre-fault-layer files carried a zeroed reserved word where the epoch
  // now lives, so a model saved without one must read back as epoch 0.
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_model(stream, sample_model());
  EXPECT_EQ(read_model(stream).epoch, 0u);
}

TEST(ModelIo, FileWriteIsAtomic) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "tpa_model_atomic.tpam").string();
  // Seed the destination with an older model, then overwrite.
  auto old_model = sample_model();
  write_model_file(path, old_model);
  auto new_model = sample_model();
  new_model.weights = {7.0F};
  new_model.epoch = 9;
  write_model_file(path, new_model);
  // The save went through <path>.tmp + rename: the temp file must be gone
  // and the destination must hold the complete new model.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const auto loaded = read_model_file(path);
  EXPECT_EQ(loaded.weights, new_model.weights);
  EXPECT_EQ(loaded.epoch, 9u);
  std::remove(path.c_str());
}

TEST(ModelIo, FailedWriteLeavesNoTempFileBehind) {
  // An unwritable destination directory throws — and must clean up the
  // partially written temp file instead of littering.
  const std::string path = "/no/such/dir/model.tpam";
  EXPECT_THROW(write_model_file(path, sample_model()), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(ModelIo, DetectsBadMagic) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  stream << "not a model at all";
  EXPECT_THROW(read_model(stream), std::runtime_error);
}

TEST(ModelIo, DetectsCorruption) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_model(stream, sample_model());
  auto bytes = stream.str();
  bytes[bytes.size() - 12] ^= 0x40;
  std::stringstream corrupted(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_model(corrupted), std::runtime_error);
}

TEST(ModelIo, DetectsTruncation) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_model(stream, sample_model());
  const auto full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() - 6),
                              std::ios::in | std::ios::binary);
  EXPECT_THROW(read_model(truncated), std::runtime_error);
}

// The bytes of sample_model() with the weight count (header offset 12)
// rewritten to `weights`.
std::string model_bytes_declaring(std::uint64_t weights) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_model(stream, sample_model());
  auto bytes = stream.str();
  std::memcpy(bytes.data() + 12, &weights, sizeof(weights));
  return bytes;
}

// A header may declare any length; the reader must refuse one the stream
// cannot hold before allocating it — a typed error, never std::bad_alloc.
TEST(ModelIo, HostileLengthThrowsRuntimeError) {
  std::stringstream stream(model_bytes_declaring(std::uint64_t{1} << 40),
                           std::ios::in | std::ios::binary);
  EXPECT_THROW(read_model(stream), std::runtime_error);
}

// A streambuf that cannot seek: tellg() reports -1, so the reader cannot
// size arrays up front and reads them in bounded chunks instead.
class NoSeekBuffer : public std::streambuf {
 public:
  explicit NoSeekBuffer(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(ModelIo, UnseekableStreamReadsInBoundedChunks) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_model(stream, sample_model());
  NoSeekBuffer good(stream.str());
  std::istream good_in(&good);
  EXPECT_EQ(read_model(good_in).weights, sample_model().weights);

  NoSeekBuffer hostile(model_bytes_declaring(std::uint64_t{1} << 40));
  std::istream hostile_in(&hostile);
  EXPECT_THROW(read_model(hostile_in), std::runtime_error);
}

TEST(ModelIo, MissingFileThrows) {
  EXPECT_THROW(read_model_file("/no/such/model.tpam"), std::runtime_error);
}

// A diverged run's weights never reach a file: the writer refuses a NaN or
// an infinity before writing a byte, and the file form keeps the previous
// model.
TEST(ModelIo, WriteRefusesNonFiniteEntries) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    auto weights = sample_model();
    weights.weights[1] = bad;
    std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
    EXPECT_THROW(write_model(stream, weights), NonFiniteModel);
    EXPECT_TRUE(stream.str().empty());

    auto shared = sample_model();
    shared.shared[0] = -bad;
    EXPECT_THROW(write_model(stream, shared), NonFiniteModel);
  }
  const auto path =
      (std::filesystem::temp_directory_path() / "tpa_model_io_nonfinite.tpam")
          .string();
  write_model_file(path, sample_model());
  auto diverged = sample_model();
  diverged.weights[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(write_model_file(path, diverged), NonFiniteModel);
  EXPECT_EQ(read_model_file(path).weights, sample_model().weights);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

// A hand-written model holding one NaN under a valid checksum: the digest
// passes, and the reader still refuses it by entry.
TEST(ModelIo, ReadRefusesNonFiniteEntryUnderValidChecksum) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_model(stream, sample_model());
  auto bytes = stream.str();
  // Magic (4) and header (32) precede the weights; the digest covers
  // everything between the magic and its own trailing 8 bytes.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::memcpy(bytes.data() + 4 + 32 + 2 * sizeof(float), &nan, sizeof(nan));
  const std::uint64_t digest = sparse::fnv1a(bytes.data() + 4,
                                             bytes.size() - 4 - 8);
  std::memcpy(bytes.data() + bytes.size() - 8, &digest, sizeof(digest));
  std::stringstream hostile(bytes, std::ios::in | std::ios::binary);
  try {
    read_model(hostile);
    FAIL() << "a NaN weight was read";
  } catch (const NonFiniteModel& error) {
    EXPECT_NE(std::string(error.what()).find("weight entry 2"),
              std::string::npos)
        << error.what();
  }
}

TEST(ModelIo, ReadRefusesTrailingBytes) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_model(stream, sample_model());
  std::stringstream longer(stream.str() + "x", std::ios::in | std::ios::binary);
  EXPECT_THROW(read_model(longer), sparse::FormatError);
}

// File-level failure paths: the serving registry reloads models from disk,
// so a half-written or bit-flipped .tpam on the filesystem must be rejected
// exactly like the stream-level cases above.

class ModelIoFileCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest -j runs the fixture's tests as concurrent
    // processes, so a shared path would race.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = (std::filesystem::temp_directory_path() /
             ("tpa_model_corrupt_" + std::string(info->name()) + ".tpam"))
                .string();
    write_model_file(path_, sample_model());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void rewrite(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(ModelIoFileCorruption, TruncatedFileThrows) {
  // Every prefix shorter than the full file must fail, including cutting
  // into the trailing checksum itself.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{2}, std::size_t{10}, bytes_.size() - 20,
        bytes_.size() - 1}) {
    rewrite(bytes_.substr(0, keep));
    EXPECT_THROW(read_model_file(path_), std::runtime_error) << keep;
  }
}

TEST_F(ModelIoFileCorruption, CorruptedChecksumThrows) {
  auto corrupted = bytes_;
  corrupted.back() ^= 0x01;  // stored checksum no longer matches
  rewrite(corrupted);
  EXPECT_THROW(read_model_file(path_), std::runtime_error);
}

TEST_F(ModelIoFileCorruption, CorruptedPayloadThrows) {
  auto corrupted = bytes_;
  corrupted[corrupted.size() / 2] ^= 0x80;  // flip a weight bit
  rewrite(corrupted);
  EXPECT_THROW(read_model_file(path_), std::runtime_error);
}

TEST_F(ModelIoFileCorruption, WrongMagicThrows) {
  auto corrupted = bytes_;
  corrupted[0] = 'X';  // "XPAM"
  rewrite(corrupted);
  EXPECT_THROW(read_model_file(path_), std::runtime_error);
}

TEST_F(ModelIoFileCorruption, ForeignFormatMagicThrows) {
  // A dataset cache file ("TPA1") is not a model ("TPAM").
  rewrite("TPA1some-other-payload");
  EXPECT_THROW(read_model_file(path_), std::runtime_error);
}

TEST(ModelIo, TrainedDualModelPredictsAfterReload) {
  data::WebspamLikeConfig config;
  config.num_examples = 512;
  config.num_features = 256;
  const auto dataset = data::make_webspam_like(config);
  const RidgeProblem problem(dataset, 1e-3);
  SeqScdSolver solver(problem, Formulation::kDual, 7);
  for (int epoch = 0; epoch < 15; ++epoch) solver.run_epoch();

  SavedModel model;
  model.formulation = Formulation::kDual;
  model.lambda = problem.lambda();
  model.weights = solver.state().weights;
  model.shared = solver.state().shared;
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_model(stream, model);
  const auto loaded = read_model(stream);

  // Predictions from the reloaded dual model (via eq. 5) must match those
  // of the live solver exactly.
  const auto beta_live = problem.primal_from_dual_shared(solver.state().shared);
  const auto beta_loaded = problem.primal_from_dual_shared(loaded.shared);
  const auto live = predict(dataset, beta_live);
  const auto reloaded = predict(dataset, beta_loaded);
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i], reloaded[i]);
  }
}

}  // namespace
}  // namespace tpa::core
