#include "sparse/io_binary.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace tpa::sparse {
namespace {

constexpr char kMagic[4] = {'T', 'P', 'A', '1'};

}  // namespace

void Fnv1a::update(const void* data, std::size_t bytes) noexcept {
  const auto* bytes_ptr = static_cast<const unsigned char*>(data);
  std::uint64_t hash = hash_;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= bytes_ptr[i];
    hash *= 0x100000001b3ULL;
  }
  hash_ = hash;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  Fnv1a acc(seed);
  acc.update(data, bytes);
  return acc.digest();
}

void CheckedReader::read(void* data, std::size_t bytes) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in_.gcount()) != bytes) {
    throw FormatError(context_ + " truncated");
  }
  checksum_.update(data, bytes);
}

void CheckedReader::finish() {
  std::uint64_t stored = 0;
  in_.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (static_cast<std::size_t>(in_.gcount()) != sizeof(stored)) {
    throw FormatError(context_ + " truncated");
  }
  if (stored != checksum_.digest()) {
    throw FormatError(context_ + ": checksum mismatch");
  }
  if (in_.peek() != std::istream::traits_type::eof()) {
    throw FormatError(context_ + ": trailing bytes");
  }
}

FrameReader::FrameReader(std::istream& in, const char (&magic)[4],
                         std::string context)
    : CheckedReader(in, std::move(context)) {
  char found[sizeof(magic)];
  in.read(found, sizeof(found));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(found) ||
      std::memcmp(found, magic, sizeof(found)) != 0) {
    throw FormatError(this->context() + ": bad magic");
  }
}

bool CheckedReader::fits(std::uint64_t count, std::size_t element_bytes) {
  const std::istream::pos_type here = in_.tellg();
  if (here == std::istream::pos_type(-1)) return false;
  in_.seekg(0, std::ios::end);
  const auto left = static_cast<std::uint64_t>(in_.tellg() - here);
  in_.seekg(here);
  if (count > left / element_bytes) {
    throw FormatError(context_ + ": header declares " +
                      std::to_string(count) + " entries of " +
                      std::to_string(element_bytes) + " bytes, but only " +
                      std::to_string(left) + " bytes remain");
  }
  return true;
}

void CheckedWriter::put(const void* data, std::size_t bytes) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
  if (!out_) throw std::runtime_error(context_ + " write failed");
}

void CheckedWriter::write(const void* data, std::size_t bytes) {
  put(data, bytes);
  checksum_.update(data, bytes);
}

void CheckedWriter::write_digest() {
  const std::uint64_t digest = checksum_.digest();
  put(&digest, sizeof(digest));
}

FrameWriter::FrameWriter(std::ostream& out, const char (&magic)[4],
                         std::string context)
    : CheckedWriter(out, std::move(context)) {
  put(magic, sizeof(magic));
}

void commit_file(const std::string& path, const std::string& context,
                 const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  // The errors name `path`, the file the caller asked for, not the .tmp.
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + path + " for writing");
    write(out);
    // The last buffered bytes reach the file only here, so a full disk or
    // a file-size limit shows up at the flush or the close, not earlier.
    out.flush();
    if (!out) throw std::runtime_error(context + " write failed: " + path);
    out.close();
    if (!out) throw std::runtime_error(context + " write failed: " + path);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("cannot rename " + tmp + " to " + path);
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

std::uint64_t BinaryHeader::file_bytes() const noexcept {
  return sizeof(kMagic) + sizeof(BinaryHeader) + (rows + 1) * sizeof(Offset) +
         nnz * (sizeof(Index) + sizeof(Value)) + labels * sizeof(float) +
         sizeof(std::uint64_t);
}

void write_binary(std::ostream& out, const LabeledMatrix& data) {
  FrameWriter writer(out, kMagic, "binary");
  const BinaryHeader header{data.matrix.rows(), data.matrix.cols(),
                            data.matrix.nnz(), data.labels.size()};
  writer.write(&header, sizeof(header));
  writer.write(data.matrix.row_offsets().data(),
               data.matrix.row_offsets().size() * sizeof(Offset));
  writer.write(data.matrix.col_indices().data(),
               data.matrix.col_indices().size() * sizeof(Index));
  writer.write(data.matrix.values().data(),
               data.matrix.values().size() * sizeof(Value));
  writer.write(data.labels.data(), data.labels.size() * sizeof(float));
  writer.write_digest();
}

void write_binary_file(const std::string& path, const LabeledMatrix& data) {
  commit_file(path, "binary",
              [&](std::ostream& out) { write_binary(out, data); });
}

LabeledMatrix read_binary(std::istream& in) {
  FrameReader reader(in, kMagic, "binary read");
  BinaryHeader header;
  reader.read(&header, sizeof(header));
  auto offsets = reader.read_array<Offset>(header.rows + 1);
  auto indices = reader.read_array<Index>(header.nnz);
  auto values = reader.read_array<Value>(header.nnz);
  auto labels = reader.read_array<float>(header.labels);
  reader.finish();
  return LabeledMatrix{
      CsrMatrix(static_cast<Index>(header.rows),
                static_cast<Index>(header.cols), std::move(offsets),
                std::move(indices), std::move(values)),
      std::move(labels)};
}

LabeledMatrix read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_binary(in);
}

}  // namespace tpa::sparse
