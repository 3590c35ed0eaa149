#include "store/svmlight_stream.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace tpa::store {
namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("svmlight parse error at line " +
                           std::to_string(line_no) + ": " + what);
}

}  // namespace

Manifest convert_svmlight_to_store(std::istream& in,
                                   const std::string& directory,
                                   const std::string& name,
                                   std::uint64_t rows_per_shard,
                                   sparse::Index num_features) {
  if (num_features == 0) {
    throw std::invalid_argument(
        "convert_svmlight_to_store: a stream needs an explicit feature "
        "count (use the file variant for inference)");
  }
  ShardWriter writer(directory, name, num_features, rows_per_shard);
  std::string line;
  std::size_t line_no = 0;
  float label = 0.0F;
  std::vector<sparse::Index> cols;
  std::vector<sparse::Value> vals;
  while (std::getline(in, line)) {
    ++line_no;
    if (!sparse::parse_svmlight_line(line, line_no, label, cols, vals)) {
      continue;
    }
    if (!cols.empty() && cols.back() >= num_features) {
      fail(line_no, "feature index exceeds num_features");
    }
    writer.append(cols, vals, label);
  }
  return writer.finish();
}

Manifest convert_svmlight_file_to_store(const std::string& svm_path,
                                        const std::string& directory,
                                        const std::string& name,
                                        std::uint64_t rows_per_shard,
                                        sparse::Index num_features) {
  if (num_features == 0) {
    // Inference pass: stream once for the maximum feature index only.
    std::ifstream scan(svm_path);
    if (!scan) throw std::runtime_error("cannot open " + svm_path);
    std::string line;
    std::size_t line_no = 0;
    float label = 0.0F;
    std::vector<sparse::Index> cols;
    std::vector<sparse::Value> vals;
    sparse::Index max_col = 0;
    bool any = false;
    while (std::getline(scan, line)) {
      ++line_no;
      if (!sparse::parse_svmlight_line(line, line_no, label, cols, vals)) {
        continue;
      }
      any = true;
      if (!cols.empty()) max_col = std::max(max_col, cols.back());
    }
    if (!any) throw std::runtime_error("svmlight file has no examples");
    num_features = max_col + 1;
  }
  std::ifstream in(svm_path);
  if (!in) throw std::runtime_error("cannot open " + svm_path);
  return convert_svmlight_to_store(in, directory, name, rows_per_shard,
                                   num_features);
}

}  // namespace tpa::store
