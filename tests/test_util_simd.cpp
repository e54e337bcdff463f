// SIMD ≡ scalar differential property tests for the vectorized color
// gather (util/simd.hpp). Every assertion compares the dispatched kernel
// against the scalar twin via force_scalar_for_testing, so the suite is
// meaningful on any host: with AVX2 it proves the vector body
// bit-identical, without it (or under -DPMTREE_DISABLE_SIMD) it
// degenerates to scalar-vs-scalar and still pins the kernel contract.
#include "pmtree/util/simd.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pmtree/util/rng.hpp"

namespace pmtree::simd {
namespace {

/// RAII guard: the force-scalar override must never leak across tests.
class ScalarGuard {
 public:
  ScalarGuard() { force_scalar_for_testing(true); }
  ~ScalarGuard() { force_scalar_for_testing(false); }
};

std::vector<std::uint32_t> random_indices(Rng& rng, std::size_t n,
                                          std::uint32_t bound) {
  std::vector<std::uint32_t> idx(n);
  for (std::uint32_t& i : idx) {
    i = static_cast<std::uint32_t>(rng.below(bound));
  }
  return idx;
}

TEST(SimdDispatch, ReportsAKnownKernel) {
  const std::string kernel = active_kernel();
  EXPECT_TRUE(kernel == "avx2" || kernel == "scalar") << kernel;
  EXPECT_EQ(available(), kernel == "avx2");
  {
    const ScalarGuard guard;
    EXPECT_STREQ(active_kernel(), "scalar");
    EXPECT_FALSE(available());
  }
  EXPECT_EQ(std::string(active_kernel()), kernel);
}

TEST(SimdGather, MatchesScalarOnRandomizedTables) {
  Rng rng(0x5EED00);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t table_size =
        1 + static_cast<std::uint32_t>(rng.below(5000));
    std::vector<std::uint32_t> table(table_size);
    for (std::uint32_t& v : table) {
      v = static_cast<std::uint32_t>(rng());
    }
    // Cover the remainder loop: sizes straddling the 8-lane width.
    const std::size_t n = rng.below(100);
    const std::vector<std::uint32_t> idx =
        random_indices(rng, n, table_size);

    std::vector<std::uint32_t> dispatched(n, 0xDEADBEEF);
    gather_u32(table.data(), idx.data(), n, dispatched.data());

    std::vector<std::uint32_t> scalar(n, 0xFEEDFACE);
    {
      const ScalarGuard guard;
      gather_u32(table.data(), idx.data(), n, scalar.data());
    }
    ASSERT_EQ(dispatched, scalar) << "trial " << trial << " n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(dispatched[i], table[idx[i]]);
    }
  }
}

TEST(SimdGather, ExactLaneMultiplesAndEmpty) {
  std::vector<std::uint32_t> table(64);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<std::uint32_t>(i * i + 7);
  }
  for (const std::size_t n : {std::size_t{0}, std::size_t{8},
                              std::size_t{16}, std::size_t{64}}) {
    std::vector<std::uint32_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) {
      idx[i] = static_cast<std::uint32_t>((i * 13) % table.size());
    }
    std::vector<std::uint32_t> out(n + 1, 0xAB);  // +1 canary slot
    gather_u32(table.data(), idx.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], table[idx[i]]);
    EXPECT_EQ(out[n], 0xABu) << "gather wrote past n";
  }
}

}  // namespace
}  // namespace pmtree::simd
