#include "pmtree/util/simd.hpp"

#include <atomic>

// All SIMD gating lives in this translation unit. The release build carries
// no -march flags, so the AVX2 body is compiled with a per-function target
// attribute (available on GCC/Clang for x86) and picked at runtime with
// __builtin_cpu_supports. -DPMTREE_DISABLE_SIMD (or a non-x86 target, or a
// non-GNU compiler) drops the AVX2 body entirely and available() pins to
// false, which is exactly the configuration the `nosimd` CMake preset
// exercises in CI.
#if !defined(PMTREE_DISABLE_SIMD) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PMTREE_HAS_AVX2 1
#include <immintrin.h>
#else
#define PMTREE_HAS_AVX2 0
#endif

namespace pmtree::simd {

namespace {

std::atomic<bool> g_force_scalar{false};

#if PMTREE_HAS_AVX2
bool cpu_has_avx2() noexcept {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}
#endif

bool use_avx2() noexcept {
#if PMTREE_HAS_AVX2
  return cpu_has_avx2() && !g_force_scalar.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

void gather_u32_scalar(const std::uint32_t* table, const std::uint32_t* idx,
                       std::size_t n, std::uint32_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = table[idx[i]];
}

#if PMTREE_HAS_AVX2

__attribute__((target("avx2"))) void gather_u32_avx2(
    const std::uint32_t* table, const std::uint32_t* idx, std::size_t n,
    std::uint32_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    const __m256i g = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(table), v, sizeof(std::uint32_t));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), g);
  }
  for (; i < n; ++i) out[i] = table[idx[i]];
}

#endif  // PMTREE_HAS_AVX2

}  // namespace

bool available() noexcept { return use_avx2(); }

const char* active_kernel() noexcept { return use_avx2() ? "avx2" : "scalar"; }

void force_scalar_for_testing(bool force) noexcept {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

void gather_u32(const std::uint32_t* table, const std::uint32_t* idx,
                std::size_t n, std::uint32_t* out) {
#if PMTREE_HAS_AVX2
  if (use_avx2()) {
    gather_u32_avx2(table, idx, n, out);
    return;
  }
#endif
  gather_u32_scalar(table, idx, n, out);
}

}  // namespace pmtree::simd
