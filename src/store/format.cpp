#include "store/format.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sparse/io_binary.hpp"

namespace tpa::store {
namespace {

constexpr const char* kManifestMagic = "TPASTORE";
constexpr int kManifestVersion = 1;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("store manifest: " + what);
}

std::uint64_t parse_u64(std::istream& in, const char* field) {
  std::string key;
  std::uint64_t value = 0;
  if (!(in >> key >> value) || key != field) {
    fail(std::string("expected '") + field + " <n>'");
  }
  return value;
}

}  // namespace

std::uint64_t rows_per_shard(std::uint64_t rows, std::uint64_t shards) {
  if (shards == 0) throw std::invalid_argument("rows_per_shard: shards == 0");
  return std::max<std::uint64_t>(1, (rows + shards - 1) / shards);
}

void write_manifest(std::ostream& out, const Manifest& manifest) {
  out << kManifestMagic << ' ' << kManifestVersion << '\n';
  out << "name " << manifest.name << '\n';
  out << "rows " << manifest.rows << '\n';
  out << "cols " << manifest.cols << '\n';
  out << "nnz " << manifest.nnz << '\n';
  out << "shards " << manifest.shards.size() << '\n';
  for (const auto& shard : manifest.shards) {
    out << "shard " << shard.row_begin << ' ' << shard.rows << ' '
        << shard.nnz << ' ' << shard.bytes << ' ' << shard.file << '\n';
  }
  if (!out) fail("write failed");
}

void write_manifest_file(const std::string& path, const Manifest& manifest) {
  sparse::commit_file(path, "store manifest", [&](std::ostream& out) {
    write_manifest(out, manifest);
  });
}

Manifest read_manifest(std::istream& in) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kManifestMagic) {
    fail("bad magic");
  }
  if (version != kManifestVersion) {
    fail("unsupported version " + std::to_string(version));
  }
  Manifest manifest;
  std::string key;
  if (!(in >> key >> manifest.name) || key != "name") fail("expected 'name'");
  manifest.rows = parse_u64(in, "rows");
  manifest.cols = parse_u64(in, "cols");
  manifest.nnz = parse_u64(in, "nnz");
  const std::uint64_t shards = parse_u64(in, "shards");

  std::uint64_t next_row = 0;
  std::uint64_t total_nnz = 0;
  for (std::uint64_t i = 0; i < shards; ++i) {
    ShardInfo shard;
    if (!(in >> key >> shard.row_begin >> shard.rows >> shard.nnz >>
          shard.bytes >> shard.file) ||
        key != "shard") {
      fail("truncated shard table (shard " + std::to_string(i) + ")");
    }
    if (shard.row_begin != next_row || shard.rows == 0) {
      fail("shard " + std::to_string(i) + " breaks the contiguous row order");
    }
    next_row += shard.rows;
    total_nnz += shard.nnz;
    manifest.shards.push_back(std::move(shard));
  }
  if (next_row != manifest.rows || total_nnz != manifest.nnz) {
    fail("shard table does not sum to the global shape");
  }
  return manifest;
}

Manifest read_manifest_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  return read_manifest(in);
}

ShardWriter::ShardWriter(std::string directory, std::string name,
                         sparse::Index cols, std::uint64_t rows_per_shard)
    : directory_(std::move(directory)),
      name_(std::move(name)),
      cols_(cols),
      rows_per_shard_(rows_per_shard) {
  if (rows_per_shard_ == 0) {
    throw std::invalid_argument("ShardWriter: rows_per_shard must be > 0");
  }
  std::filesystem::create_directories(directory_);
  manifest_path_ = directory_ + "/" + name_ + ".manifest";
  manifest_.name = name_;
  manifest_.cols = cols;
}

void ShardWriter::append(std::span<const sparse::Index> indices,
                         std::span<const sparse::Value> values, float label) {
  if (finished_) throw std::logic_error("ShardWriter: append after finish");
  if (indices.size() != values.size()) {
    throw std::invalid_argument("ShardWriter: index/value size mismatch");
  }
  indices_.insert(indices_.end(), indices.begin(), indices.end());
  values_.insert(values_.end(), values.begin(), values.end());
  offsets_.push_back(static_cast<sparse::Offset>(indices_.size()));
  labels_.push_back(label);
  if (labels_.size() == rows_per_shard_) flush_shard();
}

void ShardWriter::flush_shard() {
  if (labels_.empty()) return;
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".shard%05zu.tpa1",
                manifest_.shards.size());
  const std::string file = name_ + suffix;

  ShardInfo shard;
  shard.row_begin = manifest_.rows;
  shard.rows = labels_.size();
  shard.nnz = indices_.size();
  shard.file = file;

  // CsrMatrix validates the accumulated rows (monotone offsets, strictly
  // increasing in-range indices) as a side effect of construction.
  const sparse::LabeledMatrix slice{
      sparse::CsrMatrix(static_cast<sparse::Index>(labels_.size()), cols_,
                        std::move(offsets_), std::move(indices_),
                        std::move(values_)),
      std::move(labels_)};
  sparse::write_binary_file(directory_ + "/" + file, slice);
  shard.bytes = sparse::BinaryHeader{shard.rows, manifest_.cols, shard.nnz,
                                     shard.rows}
                    .file_bytes();

  manifest_.rows += shard.rows;
  manifest_.nnz += shard.nnz;
  manifest_.shards.push_back(std::move(shard));

  offsets_ = {0};
  indices_.clear();
  values_.clear();
  labels_.clear();
}

Manifest ShardWriter::finish() {
  if (finished_) throw std::logic_error("ShardWriter: finish called twice");
  flush_shard();
  finished_ = true;
  write_manifest_file(manifest_path_, manifest_);
  return manifest_;
}

Manifest write_store(const std::string& directory, const std::string& name,
                     const sparse::LabeledMatrix& data, std::uint64_t shards) {
  const auto& matrix = data.matrix;
  ShardWriter writer(directory, name, matrix.cols(),
                     rows_per_shard(matrix.rows(), shards));
  for (sparse::Index r = 0; r < matrix.rows(); ++r) {
    const auto row = matrix.row(r);
    writer.append(row.indices, row.values, data.labels[r]);
  }
  return writer.finish();
}

}  // namespace tpa::store
