// Device-memory accounting and host<->device transfer simulation.
//
// The functional simulator keeps "device" data in host RAM, but allocation
// sizes are charged against the device's capacity (so that, e.g., loading the
// paper-scale criteo sample onto a single 12 GB Titan X fails exactly as it
// would in reality) and every transfer accrues simulated PCIe time.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "gpusim/device.hpp"

namespace tpa::gpusim {

/// Thrown when an allocation exceeds the device's remaining capacity.
class OutOfDeviceMemory : public std::runtime_error {
 public:
  OutOfDeviceMemory(const std::string& device, std::size_t requested,
                    std::size_t available);
};

class DeviceMemory {
 public:
  explicit DeviceMemory(const DeviceSpec& spec)
      : device_name_(spec.name), capacity_(spec.mem_capacity_bytes) {}

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t allocated() const noexcept { return allocated_; }
  std::size_t available() const noexcept { return capacity_ - allocated_; }

  /// Charges `bytes` against the capacity; throws OutOfDeviceMemory when the
  /// allocation does not fit.
  void allocate(std::size_t bytes);

  /// Releases `bytes` (must not exceed the allocated amount).
  void release(std::size_t bytes);

  /// Simulated host-to-device copy time; also verifies the bytes are within
  /// an existing allocation budget (they must have been allocate()d).
  double upload_seconds(std::size_t bytes, const PcieLink& link,
                        bool pinned = true) const;

 private:
  std::string device_name_;
  std::size_t capacity_;
  std::size_t allocated_ = 0;
};

}  // namespace tpa::gpusim
