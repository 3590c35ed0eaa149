// Out-of-core shard store: binary format extensions, manifest, writer,
// reader modes, and corruption rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sparse/io_binary.hpp"
#include "store/format.hpp"
#include "store/shard_reader.hpp"
#include "store/streaming_dataset.hpp"
#include "store/svmlight_stream.hpp"

namespace tpa::store {
namespace {

// Deterministic matrix with ragged rows (including an empty one) so shard
// boundaries never line up with uniform nnz.
sparse::LabeledMatrix make_data(sparse::Index rows, sparse::Index cols) {
  std::vector<sparse::Offset> offsets{0};
  std::vector<sparse::Index> indices;
  std::vector<sparse::Value> values;
  std::vector<float> labels;
  for (sparse::Index r = 0; r < rows; ++r) {
    const int nnz = static_cast<int>((r * 7 + 3) % 5);  // 0..4 entries
    for (int k = 0; k < nnz; ++k) {
      indices.push_back((r + static_cast<sparse::Index>(k) * 11) % cols);
      values.push_back(0.5F * static_cast<float>(k + 1) -
                       static_cast<float>(r % 3));
    }
    std::sort(indices.end() - nnz, indices.end());
    offsets.push_back(indices.size());
    labels.push_back(r % 2 == 0 ? 1.0F : -1.0F);
  }
  return sparse::LabeledMatrix{
      sparse::CsrMatrix(rows, cols, std::move(offsets), std::move(indices),
                        std::move(values)),
      std::move(labels)};
}

template <class T>
std::vector<T> to_vec(std::span<const T> s) {
  return std::vector<T>(s.begin(), s.end());
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("tpa_store_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST(Fnv1a, ChainedUpdatesEqualOneShot) {
  const std::string bytes = "the quick brown fox jumps over the lazy dog";
  sparse::Fnv1a chained;
  chained.update(bytes.data(), 10);
  chained.update(bytes.data() + 10, 5);
  chained.update(bytes.data() + 15, bytes.size() - 15);
  EXPECT_EQ(chained.digest(), sparse::fnv1a(bytes.data(), bytes.size()));
  // Empty updates are identity.
  sparse::Fnv1a empty;
  empty.update(bytes.data(), 0);
  EXPECT_EQ(empty.digest(), sparse::Fnv1a::kOffsetBasis);
}

TEST(BinaryHeader, PeekMatchesWrittenShapeWithoutPayloadRead) {
  const auto data = make_data(9, 12);
  std::stringstream stream;
  sparse::write_binary(stream, data);
  const auto header = sparse::read_binary_header(stream);
  EXPECT_EQ(header.rows, 9u);
  EXPECT_EQ(header.cols, 12u);
  EXPECT_EQ(header.nnz, data.matrix.nnz());
  EXPECT_EQ(header.labels, 9u);
  EXPECT_EQ(header.file_bytes(), stream.str().size());
}

TEST(BinaryHeader, MemoryImageReadMatchesStreamRead) {
  const auto data = make_data(7, 10);
  std::stringstream stream;
  sparse::write_binary(stream, data);
  const auto image = stream.str();
  const auto from_memory = sparse::read_binary(image.data(), image.size());
  const auto from_stream = sparse::read_binary(stream);
  EXPECT_EQ(to_vec(from_memory.matrix.values()),
            to_vec(from_stream.matrix.values()));
  EXPECT_EQ(to_vec(from_memory.matrix.col_indices()),
            to_vec(from_stream.matrix.col_indices()));
  EXPECT_EQ(from_memory.labels, from_stream.labels);
  const auto header = sparse::read_binary_header(image.data(), image.size());
  EXPECT_EQ(header.rows, 7u);
}

TEST(RowsPerShard, CeilSplitRule) {
  EXPECT_EQ(rows_per_shard(10, 4), 3u);   // 3+3+3+1 -> 4 shards
  EXPECT_EQ(rows_per_shard(6, 4), 2u);    // 2+2+2 -> only 3 shards
  EXPECT_EQ(rows_per_shard(4, 1), 4u);
  EXPECT_EQ(rows_per_shard(0, 4), 1u);    // degenerate, never divides by 0
  EXPECT_EQ(rows_per_shard(5, 100), 1u);  // more shards than rows
}

TEST(Manifest, TextRoundTrip) {
  Manifest manifest;
  manifest.name = "unit";
  manifest.rows = 10;
  manifest.cols = 6;
  manifest.nnz = 21;
  manifest.shards = {{0, 5, 11, 400, "unit.shard00000.tpa1"},
                     {5, 5, 10, 390, "unit.shard00001.tpa1"}};
  std::stringstream stream;
  write_manifest(stream, manifest);
  const auto parsed = read_manifest(stream);
  EXPECT_EQ(parsed.name, manifest.name);
  EXPECT_EQ(parsed.rows, manifest.rows);
  EXPECT_EQ(parsed.cols, manifest.cols);
  EXPECT_EQ(parsed.nnz, manifest.nnz);
  ASSERT_EQ(parsed.shards.size(), 2u);
  EXPECT_EQ(parsed.shards[1].row_begin, 5u);
  EXPECT_EQ(parsed.shards[1].bytes, 390u);
  EXPECT_EQ(parsed.shards[1].file, manifest.shards[1].file);
}

TEST(Manifest, RejectsNonContiguousShards) {
  Manifest manifest;
  manifest.name = "bad";
  manifest.rows = 10;
  manifest.cols = 6;
  manifest.nnz = 21;
  manifest.shards = {{0, 5, 11, 400, "a"}, {6, 4, 10, 390, "b"}};  // gap
  std::stringstream stream;
  write_manifest(stream, manifest);
  EXPECT_THROW(read_manifest(stream), std::runtime_error);
}

TEST(Manifest, RejectsMismatchedTotals) {
  Manifest manifest;
  manifest.name = "bad";
  manifest.rows = 10;
  manifest.cols = 6;
  manifest.nnz = 99;  // shard nnz sums to 21
  manifest.shards = {{0, 5, 11, 400, "a"}, {5, 5, 10, 390, "b"}};
  std::stringstream stream;
  write_manifest(stream, manifest);
  EXPECT_THROW(read_manifest(stream), std::runtime_error);
}

TEST_F(StoreTest, WriteStoreRoundTripsThroughBothReadModes) {
  const auto data = make_data(10, 8);
  const auto manifest = write_store(dir_.string(), "rt", data, 4);
  EXPECT_EQ(manifest.rows, 10u);
  EXPECT_EQ(manifest.cols, 8u);
  EXPECT_EQ(manifest.nnz, data.matrix.nnz());
  ASSERT_EQ(manifest.shards.size(), 4u);  // 3+3+3+1
  EXPECT_EQ(manifest.shards[3].rows, 1u);

  for (const auto mode : {ReadMode::kBuffered, ReadMode::kMmap}) {
    const ShardReader reader(read_manifest_file(
                                 (dir_ / "rt.manifest").string()),
                             dir_.string(), mode);
    sparse::Index row = 0;
    for (std::size_t s = 0; s < reader.num_shards(); ++s) {
      const auto slice = reader.read_shard(s);
      EXPECT_EQ(slice.matrix.cols(), data.matrix.cols());
      for (sparse::Index r = 0; r < slice.matrix.rows(); ++r, ++row) {
        EXPECT_EQ(slice.labels[r], data.labels[row]);
        const auto got = slice.matrix.row(r);
        const auto want = data.matrix.row(row);
        ASSERT_EQ(got.nnz(), want.nnz());
        for (std::size_t k = 0; k < got.nnz(); ++k) {
          EXPECT_EQ(got.indices[k], want.indices[k]);
          EXPECT_EQ(got.values[k], want.values[k]);
        }
      }
    }
    EXPECT_EQ(row, data.matrix.rows());
  }
}

TEST_F(StoreTest, ShardWriterNeverBuffersMoreThanOneShard) {
  // Behavioural proxy for the streaming contract: shard files appear on
  // disk as soon as their row range is complete, not at finish().
  const auto data = make_data(9, 5);
  ShardWriter writer(dir_.string(), "inc", data.matrix.cols(), 3);
  for (sparse::Index r = 0; r < 6; ++r) {
    const auto row = data.matrix.row(r);
    writer.append(row.indices, row.values, data.labels[r]);
  }
  EXPECT_TRUE(std::filesystem::exists(dir_ / "inc.shard00000.tpa1"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "inc.shard00001.tpa1"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "inc.manifest"));
  for (sparse::Index r = 6; r < 9; ++r) {
    const auto row = data.matrix.row(r);
    writer.append(row.indices, row.values, data.labels[r]);
  }
  const auto manifest = writer.finish();
  EXPECT_TRUE(std::filesystem::exists(dir_ / "inc.manifest"));
  EXPECT_EQ(manifest.shards.size(), 3u);
  EXPECT_THROW(writer.append({}, {}, 0.0F), std::logic_error);
}

TEST_F(StoreTest, RejectsTruncatedShard) {
  const auto data = make_data(8, 6);
  write_store(dir_.string(), "trunc", data, 2);
  const auto shard_path = dir_ / "trunc.shard00001.tpa1";
  const auto size = std::filesystem::file_size(shard_path);
  std::filesystem::resize_file(shard_path, size - 8);
  const auto reader =
      ShardReader::open((dir_ / "trunc.manifest").string());
  EXPECT_NO_THROW(reader.read_shard(0));
  EXPECT_THROW(reader.read_shard(1), std::runtime_error);
}

// A shard whose header sizes wrap uint64 must fail as a typed error that
// names the shard in both read modes, never as an allocation failure.
TEST_F(StoreTest, RejectsWrappingHeaderInBothModes) {
  const auto data = make_data(8, 6);
  write_store(dir_.string(), "wrap", data, 2);
  const auto shard_path = dir_ / "wrap.shard00001.tpa1";
  const std::uint64_t fields[5] = {(std::uint64_t{1} << 61) - 1, 6144, 0, 0,
                                   0};
  {
    std::ofstream file(shard_path, std::ios::binary | std::ios::trunc);
    file.write("TPA1", 4);
    file.write(reinterpret_cast<const char*>(fields), sizeof(fields));
  }
  auto manifest = read_manifest_file((dir_ / "wrap.manifest").string());
  manifest.shards[1].bytes = 44;
  for (const auto mode : {ReadMode::kBuffered, ReadMode::kMmap}) {
    const ShardReader reader(manifest, dir_.string(), mode);
    try {
      reader.read_shard(1);
      FAIL() << "wrapping header was accepted in mode "
             << read_mode_name(mode);
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(shard_path.string()), std::string::npos) << what;
    }
  }
}

TEST_F(StoreTest, RejectsCorruptedShardInBothModes) {
  const auto data = make_data(8, 6);
  write_store(dir_.string(), "corrupt", data, 2);
  const auto shard_path = dir_ / "corrupt.shard00000.tpa1";
  {
    // Flip one payload byte; the size still matches the manifest, so only
    // the checksum can catch it.
    std::fstream file(shard_path, std::ios::in | std::ios::out |
                                      std::ios::binary);
    file.seekp(48);
    char byte = 0;
    file.seekg(48);
    file.get(byte);
    file.seekp(48);
    file.put(static_cast<char>(byte ^ 0x40));
  }
  for (const auto mode : {ReadMode::kBuffered, ReadMode::kMmap}) {
    const auto reader =
        ShardReader::open((dir_ / "corrupt.manifest").string(), mode);
    // The error must point an operator at the damaged file and where the
    // digest-covered payload sits inside it, not just say "mismatch".
    try {
      reader.read_shard(0);
      FAIL() << "corrupted shard was accepted in mode "
             << read_mode_name(mode);
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
      EXPECT_NE(what.find(shard_path.string()), std::string::npos) << what;
      EXPECT_NE(what.find("stored digest at byte"), std::string::npos)
          << what;
    }
    EXPECT_NO_THROW(reader.read_shard(1));
  }
}

TEST_F(StoreTest, RejectsMissingShardFile) {
  const auto data = make_data(6, 4);
  write_store(dir_.string(), "gone", data, 3);
  std::filesystem::remove(dir_ / "gone.shard00002.tpa1");
  const auto reader = ShardReader::open((dir_ / "gone.manifest").string());
  EXPECT_THROW(reader.read_shard(2), std::runtime_error);
}

TEST_F(StoreTest, MemorySourceAgreesWithStoreOnBoundariesAndBytes) {
  const auto data = make_data(11, 7);
  const auto manifest = write_store(dir_.string(), "twin", data, 4);
  StoreStreamingDataset from_disk(
      ShardReader::open((dir_ / "twin.manifest").string()));
  MemoryShardedDataset from_memory("twin", data, 4);
  ASSERT_EQ(from_disk.num_shards(), from_memory.num_shards());
  ASSERT_EQ(manifest.shards.size(), from_memory.num_shards());
  for (std::size_t s = 0; s < from_disk.num_shards(); ++s) {
    EXPECT_EQ(from_disk.shard_row_begin(s), from_memory.shard_row_begin(s));
    EXPECT_EQ(from_disk.shard_rows(s), from_memory.shard_rows(s));
    const auto disk = from_disk.load_shard(s);
    const auto memory = from_memory.load_shard(s);
    EXPECT_EQ(to_vec(disk.matrix.row_offsets()),
              to_vec(memory.matrix.row_offsets()));
    EXPECT_EQ(to_vec(disk.matrix.col_indices()),
              to_vec(memory.matrix.col_indices()));
    EXPECT_EQ(to_vec(disk.matrix.values()), to_vec(memory.matrix.values()));
    EXPECT_EQ(disk.labels, memory.labels);
  }
}

TEST_F(StoreTest, SvmlightStreamingConversionMatchesStoreFromMemory) {
  const auto data = make_data(10, 9);
  std::stringstream svm;
  sparse::write_svmlight(svm, data.matrix, data.labels);
  const auto manifest = convert_svmlight_to_store(
      svm, dir_.string(), "svm", 4, data.matrix.cols());
  EXPECT_EQ(manifest.rows, 10u);
  EXPECT_EQ(manifest.nnz, data.matrix.nnz());
  StoreStreamingDataset source(
      ShardReader::open((dir_ / "svm.manifest").string()));
  sparse::Index row = 0;
  for (std::size_t s = 0; s < source.num_shards(); ++s) {
    const auto slice = source.load_shard(s);
    for (sparse::Index r = 0; r < slice.matrix.rows(); ++r, ++row) {
      EXPECT_EQ(slice.labels[r], data.labels[row]);
      ASSERT_EQ(slice.matrix.row_nnz(r), data.matrix.row_nnz(row));
    }
  }
  EXPECT_EQ(row, data.matrix.rows());
}

TEST(ReadModeParse, NamesRoundTripAndRejectsUnknown) {
  EXPECT_EQ(parse_read_mode("buffered"), ReadMode::kBuffered);
  EXPECT_EQ(parse_read_mode("mmap"), ReadMode::kMmap);
  EXPECT_THROW(parse_read_mode("directio"), std::invalid_argument);
  EXPECT_STREQ(read_mode_name(ReadMode::kBuffered), "buffered");
  EXPECT_STREQ(read_mode_name(ReadMode::kMmap), "mmap");
}

}  // namespace
}  // namespace tpa::store
