#include "cluster/partition.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "sparse/convert.hpp"
#include "util/permutation.hpp"

namespace tpa::cluster {
namespace {

/// Scales the global PaperScale onto a shard: the partitioned dimension and
/// nnz shrink by the shard's actual fraction; the replicated dimension stays
/// global (the shared vector is not partitioned).
void inherit_paper_scale(const data::Dataset& global, data::Dataset& shard,
                         bool by_feature) {
  const auto& scale = global.paper_scale();
  if (!scale.has_value() || global.nnz() == 0) return;
  data::PaperScale local = *scale;
  const double nnz_fraction = static_cast<double>(shard.nnz()) /
                              static_cast<double>(global.nnz());
  local.nnz = static_cast<std::uint64_t>(
      static_cast<double>(scale->nnz) * nnz_fraction);
  if (by_feature) {
    const double coord_fraction =
        static_cast<double>(shard.num_features()) /
        static_cast<double>(global.num_features());
    local.features = static_cast<std::uint64_t>(
        static_cast<double>(scale->features) * coord_fraction);
  } else {
    const double coord_fraction =
        static_cast<double>(shard.num_examples()) /
        static_cast<double>(global.num_examples());
    local.examples = static_cast<std::uint64_t>(
        static_cast<double>(scale->examples) * coord_fraction);
  }
  shard.set_paper_scale(local);
}

/// Shared validation for the prescribed-sizes constructors: every worker
/// must own at least one coordinate and the sizes must tile [0, n) exactly.
void validate_sizes(Index num_coordinates, std::span<const Index> sizes) {
  if (sizes.empty()) {
    throw std::invalid_argument("Partition: sizes must be non-empty");
  }
  std::uint64_t total = 0;
  for (const auto size : sizes) {
    if (size == 0) {
      throw std::invalid_argument(
          "Partition: every worker must own at least one coordinate");
    }
    total += size;
  }
  if (total != num_coordinates) {
    throw std::invalid_argument(
        "Partition: sizes sum to " + std::to_string(total) + " but " +
        std::to_string(num_coordinates) + " coordinates were requested");
  }
}

/// A CSR over `width` columns whose row i is `slice(ids[i])`.
template <typename SliceFn>
sparse::CsrMatrix pack_rows(std::span<const Index> ids, Index width,
                            const SliceFn& slice) {
  std::vector<sparse::Offset> offsets{0};
  offsets.reserve(ids.size() + 1);
  sparse::Offset nnz = 0;
  for (const auto id : ids) {
    nnz += slice(id).nnz();
    offsets.push_back(nnz);
  }
  std::vector<Index> indices;
  std::vector<sparse::Value> values;
  indices.reserve(nnz);
  values.reserve(nnz);
  for (const auto id : ids) {
    const auto view = slice(id);
    indices.insert(indices.end(), view.indices.begin(), view.indices.end());
    values.insert(values.end(), view.values.begin(), view.values.end());
  }
  return sparse::CsrMatrix(static_cast<Index>(ids.size()), width,
                           std::move(offsets), std::move(indices),
                           std::move(values));
}

}  // namespace

Partition Partition::random(Index num_coordinates, int workers,
                            util::Rng& rng) {
  if (workers <= 0) {
    throw std::invalid_argument("Partition: workers must be positive");
  }
  Partition partition;
  partition.owned.resize(static_cast<std::size_t>(workers));
  const auto order = util::random_permutation(num_coordinates, rng);
  // Deal the shuffled coordinates round-robin so shard sizes differ by at
  // most one.
  for (std::size_t i = 0; i < order.size(); ++i) {
    partition.owned[i % static_cast<std::size_t>(workers)].push_back(
        order[i]);
  }
  for (auto& coords : partition.owned) {
    std::sort(coords.begin(), coords.end());
  }
  return partition;
}

Partition Partition::random_weighted(Index num_coordinates,
                                     std::span<const Index> sizes,
                                     util::Rng& rng) {
  validate_sizes(num_coordinates, sizes);
  Partition partition;
  partition.owned.resize(sizes.size());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    partition.owned[k].reserve(sizes[k]);
  }
  const auto order = util::random_permutation(num_coordinates, rng);
  // Same permutation draw and round-robin deal as random(), but a worker at
  // its quota is skipped.  With uniform sizes no worker ever fills before
  // its turn comes round, so this is bit-identical to random() there.
  std::size_t next = 0;
  for (const auto coordinate : order) {
    while (partition.owned[next].size() >=
           static_cast<std::size_t>(sizes[next])) {
      next = (next + 1) % sizes.size();
    }
    partition.owned[next].push_back(coordinate);
    next = (next + 1) % sizes.size();
  }
  for (auto& coords : partition.owned) {
    std::sort(coords.begin(), coords.end());
  }
  return partition;
}

Partition Partition::contiguous_sizes(Index num_coordinates,
                                      std::span<const Index> sizes) {
  validate_sizes(num_coordinates, sizes);
  Partition partition;
  partition.owned.resize(sizes.size());
  Index start = 0;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    partition.owned[k].resize(sizes[k]);
    for (Index j = 0; j < sizes[k]; ++j) {
      partition.owned[k][j] = start + j;
    }
    start += sizes[k];
  }
  return partition;
}

std::vector<Index> Partition::sizes() const {
  std::vector<Index> result(owned.size());
  for (std::size_t k = 0; k < owned.size(); ++k) {
    result[k] = static_cast<Index>(owned[k].size());
  }
  return result;
}

Partition Partition::contiguous(Index num_coordinates, int workers) {
  if (workers <= 0) {
    throw std::invalid_argument("Partition: workers must be positive");
  }
  Partition partition;
  partition.owned.resize(static_cast<std::size_t>(workers));
  const auto per_worker =
      (num_coordinates + static_cast<Index>(workers) - 1) /
      static_cast<Index>(workers);
  for (Index c = 0; c < num_coordinates; ++c) {
    partition.owned[c / per_worker].push_back(c);
  }
  return partition;
}

bool Partition::covers(Index num_coordinates) const {
  std::vector<bool> seen(num_coordinates, false);
  for (const auto& coords : owned) {
    for (const auto c : coords) {
      if (c >= num_coordinates || seen[c]) return false;
      seen[c] = true;
    }
  }
  return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

data::Dataset make_feature_shard(const data::Dataset& global,
                                 std::span<const Index> cols) {
  // The owned columns are rows of Aᵀ: pack them, then transpose back to the
  // shard's rows.  Every stored entry, explicit zeros too, is kept.
  const auto& columns = global.bucketed_cols();
  const auto owned = pack_rows(cols, global.num_examples(), [&](Index c) {
    return columns.unpadded(c);
  });
  std::vector<float> labels(global.labels().begin(), global.labels().end());
  data::Dataset shard(global.name() + "_fshard", sparse::transpose(owned),
                      std::move(labels));
  inherit_paper_scale(global, shard, /*by_feature=*/true);
  return shard;
}

data::Dataset make_example_shard(const data::Dataset& global,
                                 std::span<const Index> rows) {
  const auto& by_row = global.by_row();
  auto matrix = pack_rows(rows, by_row.cols(),
                          [&](Index r) { return by_row.row(r); });
  std::vector<float> labels;
  labels.reserve(rows.size());
  for (const auto r : rows) labels.push_back(global.labels()[r]);
  data::Dataset shard(global.name() + "_eshard", std::move(matrix),
                      std::move(labels));
  inherit_paper_scale(global, shard, /*by_feature=*/false);
  return shard;
}

data::Dataset make_shard(const data::Dataset& global, core::Formulation f,
                         std::span<const Index> coordinates) {
  return f == core::Formulation::kPrimal
             ? make_feature_shard(global, coordinates)
             : make_example_shard(global, coordinates);
}

}  // namespace tpa::cluster
