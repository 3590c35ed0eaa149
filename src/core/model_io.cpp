#include "core/model_io.hpp"

#include <cmath>
#include <fstream>
#include <span>
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

void require_finite(std::span<const float> values, const std::string& context,
                    const char* field) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      throw NonFiniteModel(context + ": non-finite " + field + " entry " +
                           std::to_string(i) + " (" +
                           std::to_string(values[i]) + ")");
    }
  }
}

}  // namespace

void require_finite(const SavedModel& model, const std::string& context) {
  require_finite(model.weights, context, "weight");
  require_finite(model.shared, context, "shared");
}

void write_model(std::ostream& out, const SavedModel& model) {
  require_finite(model, "model write");
  sparse::FrameWriter writer(out, kMagic, "model");
  Header header;
  header.formulation =
      model.formulation == Formulation::kPrimal ? 0u : 1u;
  header.epoch = model.epoch;
  header.weights = model.weights.size();
  header.shared = model.shared.size();
  header.lambda = model.lambda;
  writer.write(&header, sizeof(header));
  writer.write(model.weights.data(), model.weights.size() * sizeof(float));
  writer.write(model.shared.data(), model.shared.size() * sizeof(float));
  writer.write_digest();
}

void write_model_file(const std::string& path, const SavedModel& model) {
  // serve::Server::reload only ever opens `path`, which commit_file keeps
  // naming a complete model.
  sparse::commit_file(path, "model",
                      [&](std::ostream& out) { write_model(out, model); });
}

SavedModel read_model(std::istream& in) {
  sparse::FrameReader reader(in, kMagic, "model read");
  Header header;
  reader.read(&header, sizeof(header));
  SavedModel model;
  model.formulation =
      header.formulation == 0 ? Formulation::kPrimal : Formulation::kDual;
  model.epoch = header.epoch;
  model.lambda = header.lambda;
  model.weights = reader.read_array<float>(header.weights);
  model.shared = reader.read_array<float>(header.shared);
  reader.finish();
  require_finite(model, "model read");
  return model;
}

SavedModel read_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_model(in);
}

}  // namespace tpa::core
