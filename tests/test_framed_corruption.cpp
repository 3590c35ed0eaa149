// Every framed image — a TPA1 matrix, a .tpam model, a TPSC checkpoint, an
// .async sidecar and a compressed delta frame — decodes its own encoding bit
// for bit, and fails every single-bit flip, every truncation and one
// appended byte with its format's typed error: never a crash, a hang, or an
// allocation beyond the image.  The images are small and deterministic, so
// the sweep is exhaustive; they are the seed corpus a decoder fuzzer starts
// from.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/async_solver.hpp"
#include "cluster/delta_codec.hpp"
#include "core/model_io.hpp"
#include "frame_flips.hpp"
#include "sparse/io_binary.hpp"
#include "store/checkpoint.hpp"

// While g_watching is set, every operator new records its size, so a test
// can bound the largest single allocation a decode makes.  The replacements
// stay out of line, where the compiler cannot pair an inlined malloc with a
// delete.
namespace {
std::atomic<bool> g_watching{false};
std::atomic<std::size_t> g_largest{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_watching.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen && !g_largest.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tpa {
namespace {

/// Room for the error message a refusal builds, beyond the image itself.
constexpr std::size_t kMessageBytes = 512;

/// The largest single allocation `fn` makes.
std::size_t largest_allocation(const std::function<void()>& fn) {
  g_largest.store(0);
  g_watching.store(true);
  try {
    fn();
  } catch (...) {
    g_watching.store(false);
    throw;
  }
  g_watching.store(false);
  return g_largest.load();
}

/// One framed format: `load` hands an image to the decoder's source (a
/// stream, or a file for the decoders that only read files) outside the
/// allocation watch, and `decode` runs the decoder on it.
struct Format {
  const char* name;
  std::function<void(const std::string&)> load;
  std::function<void()> decode;
};

/// Decodes every single-bit flip, every truncation and `image` plus one
/// byte through `format`, and expects each to throw sparse::FormatError
/// with no allocation larger than the image or the valid decode's own.
void expect_every_corruption_refused(const Format& format,
                                     const std::string& image) {
  format.load(image);
  const std::size_t ceiling =
      std::max(image.size(), largest_allocation(format.decode)) +
      kMessageBytes;
  std::size_t cases = 0;
  std::size_t accepted = 0;
  std::size_t mistyped = 0;
  std::size_t oversized = 0;
  std::string first_failure;
  const auto check = [&](const std::string& bytes, const std::string& what) {
    ++cases;
    format.load(bytes);
    std::string failure;
    const std::size_t largest = largest_allocation([&] {
      try {
        format.decode();
        ++accepted;
        failure = "accepted";
      } catch (const sparse::FormatError&) {
      } catch (const std::exception& error) {
        ++mistyped;
        failure = std::string("threw a non-format error: ") + error.what();
      }
    });
    if (largest > ceiling) {
      ++oversized;
      failure = "allocated " + std::to_string(largest) + " bytes";
    }
    if (!failure.empty() && first_failure.empty()) {
      first_failure = what + ": " + failure;
    }
  };
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = image;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      check(flipped, "bit " + std::to_string(bit) + " of byte " +
                         std::to_string(byte));
    }
  }
  for (std::size_t length = 0; length < image.size(); ++length) {
    check(image.substr(0, length), "truncation to " + std::to_string(length));
  }
  check(image + '\0', "one appended byte");

  EXPECT_EQ(cases, 9 * image.size() + 1) << format.name;
  EXPECT_EQ(accepted, 0U) << format.name << ", first: " << first_failure;
  EXPECT_EQ(mistyped, 0U) << format.name << ", first: " << first_failure;
  EXPECT_EQ(oversized, 0U) << format.name << " (ceiling " << ceiling
                           << "), first: " << first_failure;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Bit-for-bit equality of float arrays (NaN-free here, but -0.0 counts).
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class FramedCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("tpa_framed_corruption_" + name + "_" + std::to_string(getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& file) const {
    return (dir_ / file).string();
  }

  std::filesystem::path dir_;
};

TEST_F(FramedCorruption, Tpa1) {
  const sparse::LabeledMatrix data{
      sparse::CsrMatrix(3, 4, {0, 2, 3, 5}, {0, 2, 1, 0, 3},
                        {1.5F, -2.0F, 0.25F, -0.0F, 4.0F}),
      {1.0F, -1.0F, 0.5F}};
  std::ostringstream out;
  sparse::write_binary(out, data);
  const std::string image = out.str();

  std::istringstream in(image);
  const auto decoded = sparse::read_binary(in);
  const auto& m = decoded.matrix;
  EXPECT_EQ(m.rows(), 3U);
  EXPECT_EQ(m.cols(), 4U);
  EXPECT_TRUE(std::equal(m.row_offsets().begin(), m.row_offsets().end(),
                         data.matrix.row_offsets().begin(),
                         data.matrix.row_offsets().end()));
  EXPECT_TRUE(std::equal(m.col_indices().begin(), m.col_indices().end(),
                         data.matrix.col_indices().begin(),
                         data.matrix.col_indices().end()));
  EXPECT_EQ(std::memcmp(m.values().data(), data.matrix.values().data(),
                        m.values().size() * sizeof(float)),
            0);
  EXPECT_TRUE(same_bits(decoded.labels, data.labels));

  std::istringstream stream;
  expect_every_corruption_refused(
      {"tpa1",
       [&](const std::string& bytes) {
         stream.str(bytes);
         stream.clear();
       },
       [&] { sparse::read_binary(stream); }},
      image);
}

TEST_F(FramedCorruption, Tpam) {
  core::SavedModel model;
  model.formulation = core::Formulation::kDual;
  model.lambda = 1e-3;
  model.epoch = 7;
  model.weights = {0.5F, -0.0F, 3.25F, -1e-30F};
  model.shared = {-0.25F, 1e30F};
  std::ostringstream out;
  core::write_model(out, model);
  const std::string image = out.str();

  std::istringstream in(image);
  const auto decoded = core::read_model(in);
  EXPECT_EQ(decoded.formulation, model.formulation);
  EXPECT_EQ(decoded.lambda, model.lambda);
  EXPECT_EQ(decoded.epoch, model.epoch);
  EXPECT_TRUE(same_bits(decoded.weights, model.weights));
  EXPECT_TRUE(same_bits(decoded.shared, model.shared));

  std::istringstream stream;
  expect_every_corruption_refused(
      {"tpam",
       [&](const std::string& bytes) {
         stream.str(bytes);
         stream.clear();
       },
       [&] { core::read_model(stream); }},
      image);
}

TEST_F(FramedCorruption, Tpsc) {
  store::StreamingCheckpoint checkpoint;
  checkpoint.epoch = 3;
  checkpoint.shards_done = 2;
  checkpoint.seed = 42;
  checkpoint.threads = 2;
  checkpoint.rows = 5;
  checkpoint.cols = 3;
  checkpoint.shards = 3;
  checkpoint.lambda = 2e-3;
  checkpoint.alpha = {0.125F, -0.0F, 1.0F, -2.5F, 1e-20F};
  checkpoint.shared = {1.5F, -3.0F, 0.0F};
  const std::string file = path("ckpt.tpsc");
  store::write_checkpoint_file(file, checkpoint);
  const std::string image = read_bytes(file);

  const auto decoded = store::read_checkpoint_file(file);
  EXPECT_EQ(decoded.epoch, checkpoint.epoch);
  EXPECT_EQ(decoded.shards_done, checkpoint.shards_done);
  EXPECT_EQ(decoded.seed, checkpoint.seed);
  EXPECT_EQ(decoded.threads, checkpoint.threads);
  EXPECT_EQ(decoded.rows, checkpoint.rows);
  EXPECT_EQ(decoded.cols, checkpoint.cols);
  EXPECT_EQ(decoded.shards, checkpoint.shards);
  EXPECT_EQ(decoded.lambda, checkpoint.lambda);
  EXPECT_TRUE(same_bits(decoded.alpha, checkpoint.alpha));
  EXPECT_TRUE(same_bits(decoded.shared, checkpoint.shared));

  expect_every_corruption_refused(
      {"tpsc", [&](const std::string& bytes) { write_bytes(file, bytes); },
       [&] { store::read_checkpoint_file(file); }},
      image);
}

TEST_F(FramedCorruption, AsyncSidecar) {
  cluster::AsyncCheckpointState state;
  state.round = 11;
  state.version = 29;
  state.seed = 5;
  state.workers.push_back({4, 0, 0, 0.0});
  state.workers.push_back({3, 1, 2, 12.5});
  const std::string file = path("model.tpam.async");
  cluster::write_async_state_file(file, state);
  const std::string image = read_bytes(file);

  const auto decoded = cluster::read_async_state_file(file);
  EXPECT_EQ(decoded.round, state.round);
  EXPECT_EQ(decoded.version, state.version);
  EXPECT_EQ(decoded.seed, state.seed);
  ASSERT_EQ(decoded.workers.size(), state.workers.size());
  EXPECT_EQ(std::memcmp(decoded.workers.data(), state.workers.data(),
                        state.workers.size() * sizeof(state.workers[0])),
            0);

  expect_every_corruption_refused(
      {"async", [&](const std::string& bytes) { write_bytes(file, bytes); },
       [&] { cluster::read_async_state_file(file); }},
      image);
}

// A delta frame travels as fields, not bytes: the transit hash must catch
// every single-bit flip of every field, and decode must refuse a frame
// whose payload or scales are one entry short or long.
TEST_F(FramedCorruption, DeltaFrame) {
  // Ratios that are powers of two against each block's max-abs scale
  // quantize exactly, so the round trip is bit for bit.
  std::vector<double> delta(600);
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = (i % 2 == 0 ? 1.0 : -1.0) *
               std::ldexp(1.0, -static_cast<int>(i % 9));
  }
  const auto frame = cluster::encode_delta(delta);
  const auto decoded = cluster::decode_delta(frame);
  ASSERT_EQ(decoded.size(), delta.size());
  EXPECT_EQ(std::memcmp(decoded.data(), delta.data(),
                        delta.size() * sizeof(double)),
            0);

  EXPECT_EQ(cluster::missed_frame_flips(frame), 0U);

  std::vector<double> out(frame.dim);
  for (std::size_t length = 0; length < frame.payload.size(); ++length) {
    auto truncated = frame;
    truncated.payload.resize(length);
    EXPECT_THROW(cluster::decode_delta(truncated, out), std::invalid_argument)
        << "payload of " << length;
  }
  for (std::size_t length = 0; length < frame.scales.size(); ++length) {
    auto truncated = frame;
    truncated.scales.resize(length);
    EXPECT_THROW(cluster::decode_delta(truncated, out), std::invalid_argument)
        << "scales of " << length;
  }
  auto long_payload = frame;
  long_payload.payload.emplace_back();
  EXPECT_THROW(cluster::decode_delta(long_payload, out), std::invalid_argument);
  auto long_scales = frame;
  long_scales.scales.push_back(1.0F);
  EXPECT_THROW(cluster::decode_delta(long_scales, out), std::invalid_argument);
}

}  // namespace
}  // namespace tpa
