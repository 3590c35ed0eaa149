// SVMLight / LIBSVM text format:  one example per line,
//   <label> <index>:<value> <index>:<value> ...
// with 1-based feature indices.  This is the interchange format in which the
// paper's datasets (webspam, criteo) are distributed, so users can point the
// library at real files when they have them.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace tpa::sparse {

struct LabeledMatrix {
  CsrMatrix matrix;
  std::vector<float> labels;
};

/// The one svmlight line parser, shared by read_svmlight and the streaming
/// store converter (store/svmlight_stream.hpp).  Parses `line` into its
/// `label` and 0-based `cols` with their `vals` (both cleared first);
/// returns false for a blank or '#' comment line, whose outputs are then
/// meaningless.  A token is `<index>:<value>` with a decimal index in
/// [1, 2^32) and a finite float value, both spanning their whole text;
/// indices strictly increase and a '#' token ends the line.  Anything else
/// throws std::runtime_error "svmlight parse error at line <line_no>: ...".
bool parse_svmlight_line(const std::string& line, std::size_t line_no,
                         float& label, std::vector<Index>& cols,
                         std::vector<Value>& vals);

/// Parses svmlight text from a stream, one parse_svmlight_line per line.
/// `num_features` forces the column count (0 = infer as max index seen).
/// Malformed entries throw std::runtime_error with the line number.
LabeledMatrix read_svmlight(std::istream& in, Index num_features = 0);

/// Convenience file wrapper; throws std::runtime_error if unreadable.
LabeledMatrix read_svmlight_file(const std::string& path,
                                 Index num_features = 0);

/// Writes labels + matrix in svmlight format (1-based indices, %.7g values).
void write_svmlight(std::ostream& out, const CsrMatrix& matrix,
                    std::span<const float> labels);

void write_svmlight_file(const std::string& path, const CsrMatrix& matrix,
                         std::span<const float> labels);

}  // namespace tpa::sparse
