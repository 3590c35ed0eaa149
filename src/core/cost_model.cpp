#include "core/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

namespace tpa::core {
namespace {

/// Interpolates a speed-up measured at 16 threads to other thread counts on
/// a log2 scale: 1 thread is exactly 1.0x by definition, 16 threads hits
/// `at_16`, and counts beyond 16 clamp to the 16-thread figure — never
/// extrapolated, because the paper's Xeon has no measurements past 16
/// hardware threads.  Non-positive thread counts read as 1.
double interpolate_speedup(double at_16, int threads) {
  if (threads <= 1) return 1.0;
  const double capped = static_cast<double>(std::min(threads, 16));
  return 1.0 + (at_16 - 1.0) * std::log2(capped) / 4.0;
}

}  // namespace

TimingWorkload TimingWorkload::for_dataset(const data::Dataset& dataset,
                                           Formulation f) {
  TimingWorkload w;
  if (const auto& scale = dataset.paper_scale(); scale.has_value()) {
    w.nnz = scale->nnz;
    w.num_coordinates =
        f == Formulation::kPrimal ? scale->features : scale->examples;
    w.shared_dim =
        f == Formulation::kPrimal ? scale->examples : scale->features;
  } else {
    w.nnz = dataset.nnz();
    w.num_coordinates = f == Formulation::kPrimal ? dataset.num_features()
                                                  : dataset.num_examples();
    w.shared_dim = f == Formulation::kPrimal ? dataset.num_examples()
                                             : dataset.num_features();
  }
  return w;
}

double CpuCostModel::epoch_seconds_sequential(const TimingWorkload& w) const
    noexcept {
  const bool shared_fits_cache =
      w.shared_dim * sizeof(float) <= llc_bytes;
  const double per_nnz =
      shared_fits_cache ? seconds_per_nnz : seconds_per_nnz_uncached;
  return static_cast<double>(w.nnz) * per_nnz;
}

double CpuCostModel::atomic_speedup(int threads) const noexcept {
  return interpolate_speedup(atomic_speedup_at_16, threads);
}

double CpuCostModel::wild_speedup(int threads) const noexcept {
  return interpolate_speedup(wild_speedup_at_16, threads);
}

double CpuCostModel::replicated_speedup(int threads) const noexcept {
  if (threads <= 1) return 1.0;
  const double capped = std::min(threads, 16);
  return 1.0 + (replicated_speedup_at_16 - 1.0) * (capped - 1.0) / 15.0;
}

int PoolDispatchModel::effective_threads(int requested) const noexcept {
  const int hw = hardware_threads > 0
                     ? hardware_threads
                     : static_cast<int>(std::max(
                           1u, std::thread::hardware_concurrency()));
  return std::max(1, std::min(requested, hw));
}

bool PoolDispatchModel::use_pool(std::uint64_t work_entries,
                                 int threads) const noexcept {
  const int effective = effective_threads(threads);
  if (effective <= 1) return false;
  const double serial =
      static_cast<double>(work_entries) * seconds_per_entry;
  const double pooled = serial / effective + dispatch_seconds +
                        per_chunk_seconds * effective;
  return pooled < serial;
}

int PoolDispatchModel::dispatch_threads(std::uint64_t work_entries,
                                        int requested) const noexcept {
  return use_pool(work_entries, requested) ? requested : 1;
}

namespace {
PoolDispatchModel g_pool_dispatch{};
}  // namespace

const PoolDispatchModel& pool_dispatch() noexcept { return g_pool_dispatch; }

void set_pool_dispatch(const PoolDispatchModel& model) noexcept {
  g_pool_dispatch = model;
}

int checked_merge_every(int merge_every, const char* who) {
  if (merge_every < 0) {
    throw std::invalid_argument(std::string(who) +
                                ": merge_every must be >= 0 (0 = automatic), "
                                "got " +
                                std::to_string(merge_every));
  }
  return merge_every;
}

int replica_merge_interval(std::uint64_t nnz, std::uint64_t num_coordinates,
                           std::uint64_t shared_dim, int threads) noexcept {
  const int t = std::max(1, threads);
  const double nnz_per_coord =
      static_cast<double>(nnz) /
      static_cast<double>(std::max<std::uint64_t>(1, num_coordinates));
  // Merge cost: t diff-accumulate passes + (t+1) reseed copies, each a
  // dense pass over shared_dim (~(3t+2)·dim entries).  Update traffic
  // between merges: t threads × interval updates × 2·nnz_per_coord entries.
  // Budget the former at 10% of the latter.
  const double merge_entries =
      static_cast<double>(3 * t + 2) * static_cast<double>(shared_dim);
  const double per_round_entries =
      static_cast<double>(t) * 2.0 * std::max(1.0, nnz_per_coord);
  const double interval = merge_entries / (0.1 * per_round_entries);
  return static_cast<int>(
      std::clamp(std::ceil(interval), 1.0, double{1 << 20}));
}

namespace {

// Concurrent-staleness budget: up to this many invisible updates by *other*
// workers between merges keep bulk-synchronous SCD stable.  Measured on the
// webspam-like generator (whose zipf head makes columns strongly
// correlated): divergence sets in near 3% of the coordinates, independent
// of problem size; 1/64 (≈1.6%) leaves a 2x margin.
std::uint64_t staleness_budget(std::uint64_t num_coordinates) noexcept {
  return std::max<std::uint64_t>(1, num_coordinates / 64);
}

}  // namespace

int replica_safe_interval(std::uint64_t num_coordinates,
                          int threads) noexcept {
  const int t = std::max(1, threads);
  if (t == 1) return 1 << 20;  // one worker: no concurrent staleness at all
  const std::uint64_t interval =
      staleness_budget(num_coordinates) / static_cast<std::uint64_t>(t - 1);
  return static_cast<int>(std::clamp<std::uint64_t>(interval, 1, 1 << 20));
}

int replica_auto_interval(std::uint64_t nnz, std::uint64_t num_coordinates,
                          std::uint64_t shared_dim, int threads) noexcept {
  return std::min(
      replica_merge_interval(nnz, num_coordinates, shared_dim, threads),
      replica_safe_interval(num_coordinates, threads));
}

double replica_damping(std::uint64_t num_coordinates, int threads,
                       int interval) noexcept {
  const int t = std::max(1, threads);
  const std::uint64_t concurrent =
      static_cast<std::uint64_t>(t - 1) *
      static_cast<std::uint64_t>(std::max(1, interval));
  const std::uint64_t budget = staleness_budget(num_coordinates);
  if (concurrent <= budget) return 1.0;
  return static_cast<double>(budget) / static_cast<double>(concurrent);
}

int cluster_staleness_window(int live_workers) noexcept {
  return std::max(1, 2 * (std::max(1, live_workers) - 1));
}

double cluster_staleness_damping(std::uint64_t staleness,
                                 int window) noexcept {
  const auto budget = static_cast<std::uint64_t>(std::max(1, window));
  if (staleness <= budget) return 1.0;
  return static_cast<double>(budget) / static_cast<double>(staleness);
}

}  // namespace tpa::core
