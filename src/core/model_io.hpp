// Model serialization: save / load trained weight vectors so the CLI tool
// (tools/tpascd_train) can train once and predict later, plus the epoch
// checkpoints the distributed trainer resumes from.
//
// Format: magic "TPAM", little-endian header (formulation tag, epoch
// counter, weight and shared-vector lengths, lambda), raw float arrays,
// FNV-1a checksum, in the frame every checksummed format shares
// (sparse::FrameReader).  The epoch field occupies what used to be a
// reserved header word, so pre-checkpoint files load as epoch 0.  A model
// holding a NaN or an infinity is refused in both directions: a diverged
// run's weights never reach a file or, through serve::ModelRegistry, a
// scorer.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "core/model.hpp"

namespace tpa::core {

struct SavedModel {
  Formulation formulation = Formulation::kPrimal;
  double lambda = 0.0;
  /// Outer epochs completed when this model was written (0 for a plain
  /// save); run_distributed resumes from epoch + 1.
  std::uint32_t epoch = 0;
  std::vector<float> weights;
  std::vector<float> shared;
};

/// The typed error of a model holding a non-finite weight or shared entry.
class NonFiniteModel : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws NonFiniteModel, naming `context` and the first offending entry,
/// unless every weight and shared entry of `model` is finite.
void require_finite(const SavedModel& model, const std::string& context);

/// Writes the model; throws NonFiniteModel on a non-finite entry (before
/// writing a byte) and std::runtime_error on IO failure.
void write_model(std::ostream& out, const SavedModel& model);

/// Atomic file save through sparse::commit_file: a crash or a refused
/// write mid-save (or mid-checkpoint) never leaves a torn file at `path` —
/// readers see either the old complete model or the new one.  Throws
/// std::runtime_error on IO failure (the .tmp is removed).
void write_model_file(const std::string& path, const SavedModel& model);

/// Reads a model; throws sparse::FormatError on bad magic, truncation,
/// checksum mismatch or trailing bytes, and NonFiniteModel on a non-finite
/// entry under a valid checksum.
SavedModel read_model(std::istream& in);
SavedModel read_model_file(const std::string& path);

}  // namespace tpa::core
