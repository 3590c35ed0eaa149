#include "sparse/io_svmlight.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sparse/coo.hpp"
#include "sparse/convert.hpp"

namespace tpa::sparse {
namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("svmlight parse error at line " +
                           std::to_string(line_no) + ": " + what);
}

}  // namespace

bool parse_svmlight_line(const std::string& line, std::size_t line_no,
                         float& label, std::vector<Index>& cols,
                         std::vector<Value>& vals) {
  cols.clear();
  vals.clear();
  if (line.empty() || line[0] == '#') return false;
  std::istringstream tokens(line);
  if (!(tokens >> label)) fail(line_no, "missing label");
  std::string pair;
  while (tokens >> pair) {
    if (pair[0] == '#') break;  // trailing comment
    const auto colon = pair.find(':');
    if (colon == std::string::npos) fail(line_no, "expected index:value");
    // Parsed wide, so an index past Index is refused rather than wrapped.
    std::uint64_t index = 0;
    float value = 0.0F;
    const char* mid = pair.data() + colon;
    const char* end = pair.data() + pair.size();
    const auto index_read = std::from_chars(pair.data(), mid, index);
    const auto value_read = std::from_chars(mid + 1, end, value);
    if (index_read.ec != std::errc() || index_read.ptr != mid ||
        value_read.ec != std::errc() || value_read.ptr != end) {
      fail(line_no, "bad index:value token '" + pair + "'");
    }
    if (index < 1) fail(line_no, "indices are 1-based and positive");
    if (index > std::numeric_limits<Index>::max()) {
      fail(line_no, "feature index " + std::to_string(index) +
                        " does not fit in 32 bits");
    }
    if (!std::isfinite(value)) {
      fail(line_no, "non-finite value in '" + pair + "'");
    }
    const auto col = static_cast<Index>(index - 1);
    if (!cols.empty() && col <= cols.back()) {
      fail(line_no, "feature indices must strictly increase");
    }
    cols.push_back(col);
    vals.push_back(value);
  }
  return true;
}

LabeledMatrix read_svmlight(std::istream& in, Index num_features) {
  struct RawRow {
    std::vector<Index> cols;
    std::vector<Value> vals;
  };
  std::vector<RawRow> raw_rows;
  std::vector<float> labels;
  Index max_col = 0;

  std::string line;
  std::size_t line_no = 0;
  float label = 0.0F;
  RawRow row;
  while (std::getline(in, line)) {
    if (!parse_svmlight_line(line, ++line_no, label, row.cols, row.vals)) {
      continue;
    }
    if (!row.cols.empty()) max_col = std::max(max_col, row.cols.back());
    labels.push_back(label);
    raw_rows.push_back(std::move(row));
  }

  Index cols = num_features;
  if (cols == 0) {
    cols = raw_rows.empty() ? 0 : max_col + 1;
  } else if (max_col >= cols) {
    throw std::runtime_error("svmlight: feature index exceeds num_features");
  }

  const auto rows = static_cast<Index>(raw_rows.size());
  std::vector<Offset> offsets(static_cast<std::size_t>(rows) + 1, 0);
  Offset nnz = 0;
  for (Index r = 0; r < rows; ++r) {
    nnz += raw_rows[r].cols.size();
    offsets[r + 1] = nnz;
  }
  std::vector<Index> col_indices;
  std::vector<Value> values;
  col_indices.reserve(nnz);
  values.reserve(nnz);
  for (const auto& row : raw_rows) {
    col_indices.insert(col_indices.end(), row.cols.begin(), row.cols.end());
    values.insert(values.end(), row.vals.begin(), row.vals.end());
  }
  return LabeledMatrix{CsrMatrix(rows, cols, std::move(offsets),
                                 std::move(col_indices), std::move(values)),
                       std::move(labels)};
}

LabeledMatrix read_svmlight_file(const std::string& path, Index num_features) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_svmlight(in, num_features);
}

void write_svmlight(std::ostream& out, const CsrMatrix& matrix,
                    std::span<const float> labels) {
  if (labels.size() != matrix.rows()) {
    throw std::invalid_argument("write_svmlight: label count != rows");
  }
  char buf[64];
  for (Index r = 0; r < matrix.rows(); ++r) {
    std::snprintf(buf, sizeof(buf), "%.7g", static_cast<double>(labels[r]));
    out << buf;
    const auto view = matrix.row(r);
    for (std::size_t k = 0; k < view.nnz(); ++k) {
      std::snprintf(buf, sizeof(buf), " %u:%.7g", view.indices[k] + 1,
                    static_cast<double>(view.values[k]));
      out << buf;
    }
    out << '\n';
  }
}

void write_svmlight_file(const std::string& path, const CsrMatrix& matrix,
                         std::span<const float> labels) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  write_svmlight(out, matrix, labels);
}

}  // namespace tpa::sparse
