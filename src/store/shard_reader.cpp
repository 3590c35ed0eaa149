#include "store/shard_reader.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "sparse/io_binary.hpp"

namespace tpa::store {
namespace {

[[noreturn]] void fail(std::size_t shard, const std::string& what) {
  throw std::runtime_error("store shard " + std::to_string(shard) + ": " +
                           what);
}

}  // namespace

ShardReader::ShardReader(Manifest manifest, std::string manifest_dir)
    : manifest_(std::move(manifest)), dir_(std::move(manifest_dir)) {
  if (dir_.empty()) dir_ = ".";
}

ShardReader ShardReader::open(const std::string& manifest_path) {
  Manifest manifest = read_manifest_file(manifest_path);
  std::string dir =
      std::filesystem::path(manifest_path).parent_path().string();
  return ShardReader(std::move(manifest), std::move(dir));
}

std::string ShardReader::shard_path(std::size_t i) const {
  return dir_ + "/" + manifest_.shards.at(i).file;
}

sparse::LabeledMatrix ShardReader::read_shard(std::size_t i) const {
  const ShardInfo& info = manifest_.shards.at(i);
  const std::string path = shard_path(i);
  obs::TraceSpan load("store/load", obs::kCurrentThread,
                      static_cast<std::int64_t>(info.bytes));

  std::error_code ec;
  const auto actual = std::filesystem::file_size(path, ec);
  if (ec) fail(i, "cannot stat " + path);
  if (actual != info.bytes) {
    fail(i, "file size " + std::to_string(actual) +
                " does not match manifest (" + std::to_string(info.bytes) +
                " bytes) — truncated or stale shard");
  }

  // The sparse decoder knows nothing about which file it is decoding;
  // re-throw its checksum/truncation errors with enough context to find
  // the damage on disk.  The FNV digest covers bytes [4, size-8) —
  // everything between the magic and the stored digest.
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(i, "cannot open " + path);
  sparse::LabeledMatrix data = [&] {
    try {
      return sparse::read_binary(in);
    } catch (const std::runtime_error& error) {
      fail(i, std::string(error.what()) + " in " + path +
                  " (payload bytes [4, " + std::to_string(info.bytes - 8) +
                  "), stored digest at byte " +
                  std::to_string(info.bytes - 8) + ")");
    }
  }();

  if (data.matrix.rows() != info.rows || data.matrix.nnz() != info.nnz ||
      data.matrix.cols() != manifest_.cols) {
    fail(i, "shard shape does not match the manifest entry");
  }
  obs::metrics().counter("store.bytes_read").add(info.bytes);
  return data;
}

}  // namespace tpa::store
