#pragma once

// The runtime-dispatched SIMD kernel behind ColorMapping::color_of_batch:
// the table-gather color lookup.
//
// Dispatch contract:
//   - The default build carries no -march flags, so the AVX2 body is
//     compiled with a per-function target attribute and selected at runtime
//     via __builtin_cpu_supports("avx2"). Non-x86 builds and
//     -DPMTREE_DISABLE_SIMD builds keep only the scalar body.
//   - The kernel has a scalar twin with bit-identical output; the
//     differential property suite (test_util_simd) enforces this, and
//     force_scalar_for_testing() lets in-process tests exercise both paths
//     regardless of host CPU.

#include <cstddef>
#include <cstdint>

namespace pmtree::simd {

/// True when the AVX2 kernel is compiled in, the host CPU supports it,
/// and no test override is active. Callers never need to check this —
/// gather_u32 dispatches internally — but benches and metrics report it.
[[nodiscard]] bool available() noexcept;

/// Name of the kernel set the dispatcher would pick right now:
/// "avx2" or "scalar".
[[nodiscard]] const char* active_kernel() noexcept;

/// Testing hook: when true, dispatch ignores CPU support and runs the
/// scalar body. Not for production use; the differential tests flip it
/// to compare both paths in one process.
void force_scalar_for_testing(bool force) noexcept;

/// out[i] = table[idx[i]] for i in [0, n). Indices must be < 2^31 (the
/// AVX2 gather consumes them as signed lane offsets); the color paths
/// satisfy this by construction (top tables are capped at 2^20 entries and
/// eager tables are gated at 2^31).
void gather_u32(const std::uint32_t* table, const std::uint32_t* idx,
                std::size_t n, std::uint32_t* out);

}  // namespace pmtree::simd
