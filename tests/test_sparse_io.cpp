// svmlight text IO and checksummed binary IO.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>

#include "sparse/io_binary.hpp"
#include "sparse/io_svmlight.hpp"

namespace tpa::sparse {
namespace {

LabeledMatrix sample_data() {
  // 3 examples, 4 features.
  CsrMatrix matrix(3, 4, {0, 2, 3, 5}, {0, 2, 1, 0, 3},
                   {1.5F, -2.0F, 0.25F, 3.0F, 4.0F});
  return LabeledMatrix{std::move(matrix), {1.0F, -1.0F, 1.0F}};
}

TEST(SvmlightIo, WriteProducesOneBasedIndices) {
  const auto data = sample_data();
  std::ostringstream out;
  write_svmlight(out, data.matrix, data.labels);
  const auto text = out.str();
  EXPECT_NE(text.find("1 1:1.5 3:-2"), std::string::npos);
  EXPECT_NE(text.find("-1 2:0.25"), std::string::npos);
}

TEST(SvmlightIo, RoundTripPreservesEverything) {
  const auto data = sample_data();
  std::stringstream stream;
  write_svmlight(stream, data.matrix, data.labels);
  const auto loaded = read_svmlight(stream, data.matrix.cols());
  ASSERT_EQ(loaded.matrix.rows(), data.matrix.rows());
  ASSERT_EQ(loaded.matrix.cols(), data.matrix.cols());
  ASSERT_EQ(loaded.matrix.nnz(), data.matrix.nnz());
  for (Index r = 0; r < data.matrix.rows(); ++r) {
    EXPECT_EQ(loaded.labels[r], data.labels[r]);
    for (Index c = 0; c < data.matrix.cols(); ++c) {
      EXPECT_EQ(loaded.matrix.at(r, c), data.matrix.at(r, c));
    }
  }
}

TEST(SvmlightIo, InfersFeatureCountFromMaxIndex) {
  std::istringstream in("1 3:2.0\n-1 7:1.0\n");
  const auto loaded = read_svmlight(in);
  EXPECT_EQ(loaded.matrix.cols(), 7u);
  EXPECT_EQ(loaded.matrix.at(1, 6), 1.0F);
}

TEST(SvmlightIo, SkipsCommentsAndBlankLines) {
  std::istringstream in("# header\n\n1 1:1.0\n# trailing\n");
  const auto loaded = read_svmlight(in);
  EXPECT_EQ(loaded.matrix.rows(), 1u);
}

TEST(SvmlightIo, AllowsEmptyRows) {
  std::istringstream in("1\n-1 2:5.0\n");
  const auto loaded = read_svmlight(in);
  ASSERT_EQ(loaded.matrix.rows(), 2u);
  EXPECT_EQ(loaded.matrix.row_nnz(0), 0u);
  EXPECT_EQ(loaded.matrix.row_nnz(1), 1u);
}

TEST(SvmlightIo, RejectsZeroBasedIndex) {
  std::istringstream in("1 0:1.0\n");
  EXPECT_THROW(read_svmlight(in), std::runtime_error);
}

TEST(SvmlightIo, RejectsNonIncreasingIndices) {
  std::istringstream in("1 3:1.0 2:1.0\n");
  EXPECT_THROW(read_svmlight(in), std::runtime_error);
}

TEST(SvmlightIo, RejectsMalformedPair) {
  std::istringstream in("1 nonsense\n");
  EXPECT_THROW(read_svmlight(in), std::runtime_error);
}

TEST(SvmlightIo, RejectsIndexBeyondForcedFeatureCount) {
  std::istringstream in("1 9:1.0\n");
  EXPECT_THROW(read_svmlight(in, 4), std::runtime_error);
}

TEST(SvmlightIo, WriteRejectsLabelMismatch) {
  const auto data = sample_data();
  std::ostringstream out;
  const std::vector<float> wrong(2, 0.0F);
  EXPECT_THROW(write_svmlight(out, data.matrix, wrong),
               std::invalid_argument);
}

TEST(BinaryIo, RoundTripPreservesEverything) {
  const auto data = sample_data();
  std::stringstream stream(std::ios::in | std::ios::out |
                           std::ios::binary);
  write_binary(stream, data);
  const auto loaded = read_binary(stream);
  ASSERT_EQ(loaded.matrix.rows(), data.matrix.rows());
  ASSERT_EQ(loaded.matrix.cols(), data.matrix.cols());
  ASSERT_EQ(loaded.labels.size(), data.labels.size());
  for (Index r = 0; r < data.matrix.rows(); ++r) {
    EXPECT_EQ(loaded.labels[r], data.labels[r]);
    for (Index c = 0; c < data.matrix.cols(); ++c) {
      EXPECT_EQ(loaded.matrix.at(r, c), data.matrix.at(r, c));
    }
  }
}

TEST(BinaryIo, DetectsBadMagic) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  stream << "NOPE-this-is-not-the-format";
  EXPECT_THROW(read_binary(stream), std::runtime_error);
}

// A header declaring 2^40 rows must fail as a typed error before anything
// that size is allocated.
TEST(BinaryIo, HostileLengthThrowsRuntimeError) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(stream, sample_data());
  auto bytes = stream.str();
  const std::uint64_t rows = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + 4, &rows, sizeof(rows));  // header.rows
  std::stringstream hostile(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_binary(hostile), std::runtime_error);
}

// A mapped image whose header counts make file_bytes() wrap uint64: with
// 2^61 - 1 rows the offsets alone take exactly 2^64 bytes, so a 44-byte
// image "matches" its declared size.  The counts must be bounded first.
TEST(BinaryIo, MappedHeaderWhoseSizeWrapsThrowsRuntimeError) {
  const std::uint64_t fields[5] = {(std::uint64_t{1} << 61) - 1, 6144, 0, 0,
                                   0};
  std::string image = "TPA1";
  image.append(reinterpret_cast<const char*>(fields), sizeof(fields));
  ASSERT_EQ(image.size(), 44u);
  EXPECT_THROW(read_binary(image.data(), image.size()), std::runtime_error);
}

TEST(BinaryIo, DetectsTruncation) {
  const auto data = sample_data();
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(stream, data);
  const auto full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2),
                              std::ios::in | std::ios::binary);
  EXPECT_THROW(read_binary(truncated), std::runtime_error);
}

TEST(BinaryIo, DetectsCorruption) {
  const auto data = sample_data();
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(stream, data);
  auto bytes = stream.str();
  bytes[bytes.size() / 2] ^= 0x5A;  // flip bits mid-payload
  std::stringstream corrupted(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_binary(corrupted), std::runtime_error);
}

TEST(BinaryIo, Fnv1aIsStableAndSensitive) {
  const char a[] = "hello";
  const char b[] = "hellp";
  EXPECT_EQ(fnv1a(a, 5), fnv1a(a, 5));
  EXPECT_NE(fnv1a(a, 5), fnv1a(b, 5));
  EXPECT_NE(fnv1a(a, 5), fnv1a(a, 4));
}

TEST(BinaryIo, EmptyMatrixRoundTrips) {
  LabeledMatrix data{CsrMatrix(0, 5, {0}, {}, {}), {}};
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(stream, data);
  const auto loaded = read_binary(stream);
  EXPECT_EQ(loaded.matrix.rows(), 0u);
  EXPECT_EQ(loaded.matrix.cols(), 5u);
  EXPECT_TRUE(loaded.labels.empty());
}

}  // namespace
}  // namespace tpa::sparse
