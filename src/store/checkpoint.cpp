#include "store/checkpoint.hpp"

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

}  // namespace

void write_checkpoint_file(const std::string& path,
                           const StreamingCheckpoint& checkpoint) {
  sparse::commit_file(path, "checkpoint", [&](std::ostream& out) {
    sparse::FrameWriter writer(out, kMagic, "checkpoint");
    const Header header{checkpoint.epoch, checkpoint.shards_done,
                        checkpoint.seed,  checkpoint.threads,
                        checkpoint.rows,  checkpoint.cols,
                        checkpoint.shards, checkpoint.lambda};
    writer.write(&header, sizeof(header));
    writer.write(checkpoint.alpha.data(),
                 checkpoint.alpha.size() * sizeof(float));
    writer.write(checkpoint.shared.data(),
                 checkpoint.shared.size() * sizeof(float));
    writer.write_digest();
  });
}

StreamingCheckpoint read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  // The reader sizes the rows/cols arrays against the bytes left in the file
  // before trusting them: a corrupted field fails cleanly, not as a giant
  // allocation.
  sparse::FrameReader reader(in, kMagic, "checkpoint");
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
  reader.finish();
  return checkpoint;
}

}  // namespace tpa::store
