#pragma once

// The library carries no ISA-specific kernels: every color lookup is a
// plain indexed table read (DESIGN.md §7). active_kernel() remains as the
// host fact the E26 benchmark records.

namespace pmtree::simd {

/// Name of the kernel set the library runs: always "scalar".
[[nodiscard]] constexpr const char* active_kernel() noexcept {
  return "scalar";
}

}  // namespace pmtree::simd
