#include "gpusim/device_memory.hpp"

namespace tpa::gpusim {

OutOfDeviceMemory::OutOfDeviceMemory(const std::string& device,
                                     std::size_t requested,
                                     std::size_t available)
    : std::runtime_error("device " + device + ": allocation of " +
                         std::to_string(requested) + " bytes exceeds " +
                         std::to_string(available) + " bytes available") {}

void DeviceMemory::allocate(std::size_t bytes) {
  if (bytes > available()) {
    throw OutOfDeviceMemory(device_name_, bytes, available());
  }
  allocated_ += bytes;
}

void DeviceMemory::release(std::size_t bytes) {
  allocated_ -= bytes <= allocated_ ? bytes : allocated_;
}

double DeviceMemory::upload_seconds(std::size_t bytes, const PcieLink& link,
                                    bool pinned) const {
  return link.transfer_seconds(bytes, pinned);
}

}  // namespace tpa::gpusim
