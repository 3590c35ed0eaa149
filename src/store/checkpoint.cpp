#include "store/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "sparse/io_binary.hpp"

namespace tpa::store {
namespace {

constexpr char kMagic[4] = {'T', 'P', 'S', 'C'};

struct Header {
  std::uint64_t epoch = 0;
  std::uint64_t shards_done = 0;
  std::uint64_t seed = 0;
  std::uint64_t threads = 0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t shards = 0;
  double lambda = 0.0;
};

void write_raw(std::ostream& out, const void* data, std::size_t bytes,
               sparse::Fnv1a& checksum) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out) throw std::runtime_error("checkpoint write failed");
  checksum.update(data, bytes);
}

}  // namespace

void write_checkpoint_file(const std::string& path,
                           const StreamingCheckpoint& checkpoint) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) {
      throw std::runtime_error("cannot open " + tmp + " for writing");
    }
    out.write(kMagic, sizeof(kMagic));
    sparse::Fnv1a checksum;
    const Header header{checkpoint.epoch, checkpoint.shards_done,
                        checkpoint.seed,  checkpoint.threads,
                        checkpoint.rows,  checkpoint.cols,
                        checkpoint.shards, checkpoint.lambda};
    write_raw(out, &header, sizeof(header), checksum);
    write_raw(out, checkpoint.alpha.data(),
              checkpoint.alpha.size() * sizeof(float), checksum);
    write_raw(out, checkpoint.shared.data(),
              checkpoint.shared.size() * sizeof(float), checksum);
    const std::uint64_t digest = checksum.digest();
    out.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
    if (!out) throw std::runtime_error("checkpoint write failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

StreamingCheckpoint read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("checkpoint: bad magic");
  }
  // The reader sizes the rows/cols arrays against the bytes left in the file
  // before trusting them: a corrupted field fails cleanly, not as a giant
  // allocation.
  sparse::CheckedReader reader(in, "checkpoint");
  Header header;
  reader.read(&header, sizeof(header));
  StreamingCheckpoint checkpoint;
  checkpoint.epoch = header.epoch;
  checkpoint.shards_done = header.shards_done;
  checkpoint.seed = header.seed;
  checkpoint.threads = header.threads;
  checkpoint.rows = header.rows;
  checkpoint.cols = header.cols;
  checkpoint.shards = header.shards;
  checkpoint.lambda = header.lambda;
  checkpoint.alpha = reader.read_array<float>(header.rows);
  checkpoint.shared = reader.read_array<float>(header.cols);
  std::uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(stored)) {
    throw std::runtime_error("checkpoint truncated (checksum)");
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    throw std::runtime_error("checkpoint: header contradicts file size");
  }
  if (stored != reader.digest()) {
    throw std::runtime_error("checkpoint: checksum mismatch");
  }
  return checkpoint;
}

}  // namespace tpa::store
