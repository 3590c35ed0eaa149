// Build provenance for run reports and benchmark artefacts: committed
// BENCH_*.json and --metrics-out reports must be attributable to a specific
// source revision, compiler and configuration.
//
// The git SHA is captured at CMake configure time (src/obs/CMakeLists.txt),
// with a "-dirty" suffix when tracked files differed from HEAD then —
// re-run CMake after committing if you need the exported SHA exact.
// Kernel-layer facts (backend, -march=native) live in linalg, which sits
// below obs; report writers combine both.
#pragma once

namespace tpa::obs {

struct BuildInfo {
  const char* git_sha;     // short commit hash (+"-dirty"), or "unknown"
  const char* compiler;    // compiler id + version string
  const char* build_type;  // CMAKE_BUILD_TYPE, e.g. "Release"
};

BuildInfo build_info() noexcept;

}  // namespace tpa::obs
