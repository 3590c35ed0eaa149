#include "core/model_io.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "sparse/io_binary.hpp"

namespace tpa::core {
namespace {

constexpr char kMagic[4] = {'T', 'P', 'A', 'M'};

struct Header {
  std::uint32_t formulation = 0;
  std::uint32_t epoch = 0;  // was reserved/zero before checkpointing
  std::uint64_t weights = 0;
  std::uint64_t shared = 0;
  double lambda = 0.0;
};

void write_raw(std::ostream& out, const void* data, std::size_t bytes,
               std::uint64_t& checksum) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out) throw std::runtime_error("model write failed");
  checksum = sparse::fnv1a(data, bytes, checksum);
}

}  // namespace

void write_model(std::ostream& out, const SavedModel& model) {
  out.write(kMagic, sizeof(kMagic));
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  Header header;
  header.formulation =
      model.formulation == Formulation::kPrimal ? 0u : 1u;
  header.epoch = model.epoch;
  header.weights = model.weights.size();
  header.shared = model.shared.size();
  header.lambda = model.lambda;
  write_raw(out, &header, sizeof(header), checksum);
  write_raw(out, model.weights.data(),
            model.weights.size() * sizeof(float), checksum);
  write_raw(out, model.shared.data(), model.shared.size() * sizeof(float),
            checksum);
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!out) throw std::runtime_error("model write failed");
}

void write_model_file(const std::string& path, const SavedModel& model) {
  // Write-to-temp + rename so a crash mid-write never exposes a torn file:
  // rename(2) is atomic within a filesystem, and serve::Server::reload only
  // ever opens `path`, which always names a complete model.
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open " + tmp + " for writing");
    }
    write_model(out, model);
    out.flush();
    if (!out) throw std::runtime_error("model write failed: " + tmp);
    out.close();
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("cannot rename " + tmp + " to " + path);
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

SavedModel read_model(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("model read: bad magic");
  }
  sparse::CheckedReader reader(in, "model read");
  Header header;
  reader.read(&header, sizeof(header));
  SavedModel model;
  model.formulation =
      header.formulation == 0 ? Formulation::kPrimal : Formulation::kDual;
  model.epoch = header.epoch;
  model.lambda = header.lambda;
  model.weights = reader.read_array<float>(header.weights);
  model.shared = reader.read_array<float>(header.shared);
  std::uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(stored) ||
      stored != reader.digest()) {
    throw std::runtime_error("model read: checksum mismatch");
  }
  return model;
}

SavedModel read_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_model(in);
}

}  // namespace tpa::core
