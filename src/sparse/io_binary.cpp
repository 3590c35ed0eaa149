#include "sparse/io_binary.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace tpa::sparse {
namespace {

constexpr char kMagic[4] = {'T', 'P', 'A', '1'};

void write_raw(std::ostream& out, const void* data, std::size_t bytes,
               Fnv1a& checksum) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out) throw std::runtime_error("binary write failed");
  checksum.update(data, bytes);
}

LabeledMatrix assemble(const BinaryHeader& header, std::vector<Offset> offsets,
                       std::vector<Index> indices, std::vector<Value> values,
                       std::vector<float> labels) {
  return LabeledMatrix{
      CsrMatrix(static_cast<Index>(header.rows),
                static_cast<Index>(header.cols), std::move(offsets),
                std::move(indices), std::move(values)),
      std::move(labels)};
}

// Throws unless `count` entries of `element_bytes` fit in a `size`-byte
// image.
void fits_image(std::uint64_t count, std::size_t element_bytes,
                std::size_t size) {
  if (count > size / element_bytes) {
    throw std::runtime_error("binary read: header declares " +
                             std::to_string(count) + " entries of " +
                             std::to_string(element_bytes) +
                             " bytes, but the image has " +
                             std::to_string(size) + " bytes");
  }
}

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
    throw std::runtime_error(context_ + " truncated");
  }
  checksum_.update(data, bytes);
}

bool CheckedReader::fits(std::uint64_t count, std::size_t element_bytes) {
  const std::istream::pos_type here = in_.tellg();
  if (here == std::istream::pos_type(-1)) return false;
  in_.seekg(0, std::ios::end);
  const auto left = static_cast<std::uint64_t>(in_.tellg() - here);
  in_.seekg(here);
  if (count > left / element_bytes) {
    throw std::runtime_error(context_ + ": header declares " +
                             std::to_string(count) + " entries of " +
                             std::to_string(element_bytes) +
                             " bytes, but only " + std::to_string(left) +
                             " bytes remain");
  }
  return true;
}

std::uint64_t BinaryHeader::payload_bytes() const noexcept {
  return (rows + 1) * sizeof(Offset) + nnz * (sizeof(Index) + sizeof(Value)) +
         labels * sizeof(float);
}

std::uint64_t BinaryHeader::file_bytes() const noexcept {
  return sizeof(kMagic) + sizeof(BinaryHeader) + payload_bytes() +
         sizeof(std::uint64_t);
}

void write_binary(std::ostream& out, const LabeledMatrix& data) {
  out.write(kMagic, sizeof(kMagic));
  Fnv1a checksum;
  const BinaryHeader header{data.matrix.rows(), data.matrix.cols(),
                            data.matrix.nnz(), data.labels.size()};
  write_raw(out, &header, sizeof(header), checksum);
  write_raw(out, data.matrix.row_offsets().data(),
            data.matrix.row_offsets().size() * sizeof(Offset), checksum);
  write_raw(out, data.matrix.col_indices().data(),
            data.matrix.col_indices().size() * sizeof(Index), checksum);
  write_raw(out, data.matrix.values().data(),
            data.matrix.values().size() * sizeof(Value), checksum);
  write_raw(out, data.labels.data(), data.labels.size() * sizeof(float),
            checksum);
  const std::uint64_t digest = checksum.digest();
  out.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
  if (!out) throw std::runtime_error("binary write failed");
}

void write_binary_file(const std::string& path, const LabeledMatrix& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  write_binary(out, data);
}

BinaryHeader read_binary_header(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("binary read: bad magic");
  }
  BinaryHeader header;
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(header)) {
    throw std::runtime_error("binary read truncated (header)");
  }
  return header;
}

BinaryHeader read_binary_header_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_binary_header(in);
}

BinaryHeader read_binary_header(const void* data, std::size_t size) {
  if (size < sizeof(kMagic) + sizeof(BinaryHeader) ||
      std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("binary read: bad magic");
  }
  BinaryHeader header;
  std::memcpy(&header, static_cast<const char*>(data) + sizeof(kMagic),
              sizeof(header));
  return header;
}

LabeledMatrix read_binary(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("binary read: bad magic");
  }
  CheckedReader reader(in, "binary read");
  BinaryHeader header;
  reader.read(&header, sizeof(header));

  auto offsets = reader.read_array<Offset>(header.rows + 1);
  auto indices = reader.read_array<Index>(header.nnz);
  auto values = reader.read_array<Value>(header.nnz);
  auto labels = reader.read_array<float>(header.labels);

  std::uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(stored)) {
    throw std::runtime_error("binary read truncated (checksum)");
  }
  if (stored != reader.digest()) {
    throw std::runtime_error("binary read: checksum mismatch");
  }
  return assemble(header, std::move(offsets), std::move(indices),
                  std::move(values), std::move(labels));
}

LabeledMatrix read_binary(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const BinaryHeader header = read_binary_header(data, size);
  // Bound each declared count by the image before file_bytes() sums them:
  // a sum that wraps uint64 would pass the size check below.
  fits_image(header.rows, sizeof(Offset), size);
  fits_image(header.nnz, sizeof(Index) + sizeof(Value), size);
  fits_image(header.labels, sizeof(float), size);
  if (header.file_bytes() != size) {
    throw std::runtime_error("binary read truncated (payload)");
  }
  const unsigned char* cursor = bytes + sizeof(kMagic) + sizeof(header);

  std::vector<Offset> offsets(header.rows + 1);
  std::vector<Index> indices(header.nnz);
  std::vector<Value> values(header.nnz);
  std::vector<float> labels(header.labels);
  const auto take = [&cursor](void* dst, std::size_t n) {
    std::memcpy(dst, cursor, n);
    cursor += n;
  };
  take(offsets.data(), offsets.size() * sizeof(Offset));
  take(indices.data(), indices.size() * sizeof(Index));
  take(values.data(), values.size() * sizeof(Value));
  take(labels.data(), labels.size() * sizeof(float));

  std::uint64_t stored = 0;
  std::memcpy(&stored, cursor, sizeof(stored));
  // One pass over the mapped image, exactly the bytes the stream reader
  // would have folded in.
  const std::uint64_t computed =
      fnv1a(bytes + sizeof(kMagic),
            sizeof(header) + header.payload_bytes());
  if (stored != computed) {
    throw std::runtime_error("binary read: checksum mismatch");
  }
  return assemble(header, std::move(offsets), std::move(indices),
                  std::move(values), std::move(labels));
}

LabeledMatrix read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_binary(in);
}

}  // namespace tpa::sparse
