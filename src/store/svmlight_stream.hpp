// Streaming svmlight → shard store conversion: each line parses straight
// into ShardWriter::append, so a 40 GB text file converts with one shard's
// arrays of peak memory — the constraint the whole store exists for.
//
// Every line goes through sparse::parse_svmlight_line, the parser
// read_svmlight uses, so a store converted from a file decodes to the same
// LabeledMatrix that read_svmlight_file would build in memory, and both
// refuse the same lines.
#pragma once

#include <iosfwd>
#include <string>

#include "store/format.hpp"

namespace tpa::store {

/// Streams svmlight text into `<directory>/<name>.manifest` + shards of
/// `rows_per_shard` rows.  `num_features` is the global column count and
/// must be positive for the stream variant (a stream cannot be rescanned
/// to infer it).  Malformed lines throw std::runtime_error with the line
/// number.
Manifest convert_svmlight_to_store(std::istream& in,
                                   const std::string& directory,
                                   const std::string& name,
                                   std::uint64_t rows_per_shard,
                                   sparse::Index num_features);

/// File variant: `num_features` == 0 makes a first streaming pass over the
/// file to find the maximum feature index, then converts on the second
/// pass — still one shard of peak memory, at the price of reading the text
/// twice.
Manifest convert_svmlight_file_to_store(const std::string& svm_path,
                                        const std::string& directory,
                                        const std::string& name,
                                        std::uint64_t rows_per_shard,
                                        sparse::Index num_features = 0);

}  // namespace tpa::store
