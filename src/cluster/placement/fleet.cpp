#include "cluster/placement/fleet.hpp"

#include <sstream>
#include <stdexcept>

#include "gpusim/timing_model.hpp"

namespace tpa::cluster::placement {
namespace {

DeviceSpec parse_device(const std::string& token) {
  if (token == "titanx") return DeviceSpec::titan_x();
  if (token == "m4000") return DeviceSpec::m4000();
  if (token == "cpu") return DeviceSpec::cpu_pool(1);
  if (token.rfind("cpu:", 0) == 0) {
    const auto threads_str = token.substr(4);
    std::size_t consumed = 0;
    int threads = 0;
    try {
      threads = std::stoi(threads_str, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != threads_str.size() || threads <= 0) {
      throw std::invalid_argument(
          "fleet spec: cpu pool needs a positive thread count, got 'cpu:" +
          threads_str + "'");
    }
    return DeviceSpec::cpu_pool(threads);
  }
  throw std::invalid_argument(
      "fleet spec: unknown device '" + token +
      "' (expected cpu[:threads] | m4000 | titanx)");
}

}  // namespace

core::SolverKind DeviceSpec::solver_kind() const noexcept {
  if (kind == Kind::kGpu) return gpu_solver;
  return threads > 1 ? core::SolverKind::kThreadedReplicated
                     : core::SolverKind::kSequential;
}

core::SolverConfig DeviceSpec::solver_config(
    const core::SolverConfig& base) const {
  core::SolverConfig config = base;
  config.kind = solver_kind();
  config.threads = threads;
  config.cpu_cost = cpu;
  return config;
}

double DeviceSpec::epoch_seconds(const core::TimingWorkload& w) const {
  if (kind == Kind::kGpu) {
    gpusim::EpochWorkload gw;
    gw.nnz = w.nnz;
    gw.num_coordinates = w.num_coordinates;
    gw.shared_dim = w.shared_dim;
    return gpusim::GpuTimingModel(gpu).epoch_seconds(gw);
  }
  const double sequential = cpu.epoch_seconds_sequential(w);
  return threads > 1 ? sequential / cpu.replicated_speedup(threads)
                     : sequential;
}

DeviceSpec DeviceSpec::cpu_pool(int threads) {
  DeviceSpec spec;
  spec.kind = Kind::kCpuPool;
  spec.threads = threads;
  spec.label = threads > 1 ? "cpu:" + std::to_string(threads) : "cpu";
  return spec;
}

DeviceSpec DeviceSpec::titan_x() {
  DeviceSpec spec;
  spec.kind = Kind::kGpu;
  spec.label = "titanx";
  spec.gpu_solver = core::SolverKind::kTpaTitanX;
  spec.gpu = gpusim::DeviceSpec::titan_x();
  return spec;
}

DeviceSpec DeviceSpec::m4000() {
  DeviceSpec spec;
  spec.kind = Kind::kGpu;
  spec.label = "m4000";
  spec.gpu_solver = core::SolverKind::kTpaM4000;
  spec.gpu = gpusim::DeviceSpec::quadro_m4000();
  return spec;
}

FleetSpec parse_fleet_spec(const std::string& spec) {
  FleetSpec fleet;
  std::stringstream stream(spec);
  std::string group;
  while (std::getline(stream, group, ',')) {
    if (group.empty()) continue;
    const auto x = group.find('x');
    if (x == std::string::npos || x == 0) {
      throw std::invalid_argument(
          "fleet spec: expected <count>x<device>, got '" + group + "'");
    }
    const auto count_str = group.substr(0, x);
    std::size_t consumed = 0;
    int count = 0;
    try {
      count = std::stoi(count_str, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != count_str.size() || count <= 0) {
      throw std::invalid_argument(
          "fleet spec: count must be a positive integer in '" + group + "'");
    }
    const auto device = parse_device(group.substr(x + 1));
    fleet.insert(fleet.end(), static_cast<std::size_t>(count), device);
  }
  if (fleet.empty()) {
    throw std::invalid_argument("fleet spec: no devices in '" + spec + "'");
  }
  return fleet;
}

std::string fleet_summary(const FleetSpec& fleet) {
  // Re-run-length-encode consecutive identical labels.
  std::string out;
  std::size_t i = 0;
  while (i < fleet.size()) {
    std::size_t j = i;
    while (j < fleet.size() && fleet[j].label == fleet[i].label) ++j;
    if (!out.empty()) out += " + ";
    out += std::to_string(j - i) + "x" + fleet[i].label;
    i = j;
  }
  out += " (" + std::to_string(fleet.size()) + " workers)";
  return out;
}

bool fleet_has_gpu(const FleetSpec& fleet) {
  for (const auto& device : fleet) {
    if (device.is_gpu()) return true;
  }
  return false;
}

}  // namespace tpa::cluster::placement
