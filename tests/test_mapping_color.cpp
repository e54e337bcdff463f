// COLOR on trees taller than one block: Theorem 3 (conflict-freeness with
// the block family B(N)), Theorem 4/5 (cost <= 1 at full parallelism),
// Lemmas 3-5 (oversized templates) and Theorem 6 (composites), verified
// exhaustively on moderate trees.
#include "pmtree/mapping/color.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "pmtree/analysis/bounds.hpp"
#include "pmtree/analysis/cost.hpp"
#include "pmtree/analysis/verify.hpp"
#include "pmtree/util/bits.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree {
namespace {

struct ColorParams {
  std::uint32_t levels;  ///< tree levels H
  std::uint32_t N;
  std::uint32_t k;
};

std::string param_name(const ::testing::TestParamInfo<ColorParams>& param_info) {
  return "H" + std::to_string(param_info.param.levels) + "_N" +
         std::to_string(param_info.param.N) + "_k" + std::to_string(param_info.param.k);
}

class ColorTheorem3 : public ::testing::TestWithParam<ColorParams> {};

TEST_P(ColorTheorem3, ConflictFreeOnSubtreesAndPaths) {
  const auto [levels, N, k] = GetParam();
  const ColorMapping map(CompleteBinaryTree(levels), N, k);
  const auto verdict = verify_cf_elementary(map, tree_size(k), N);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

TEST_P(ColorTheorem3, LazyRetrievalMatchesEagerTable) {
  const auto [levels, N, k] = GetParam();
  const CompleteBinaryTree tree(levels);
  const ColorMapping map(tree, N, k);
  const auto table = map.materialize();
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_EQ(map.color_of(node_at(id)), table[id])
        << "node " << to_string(node_at(id));
  }
}

TEST_P(ColorTheorem3, BlockTableRetrievalMatchesLazy) {
  // PRE-BASIC-COLOR's O(H/(N-k)) retrieval must agree with the O(H) chase.
  const auto [levels, N, k] = GetParam();
  const CompleteBinaryTree tree(levels);
  const ColorMapping lazy(tree, N, k);
  const ColorMapping fast(tree, N, k, internal::GammaVariant::kCorrect,
                          ColorMapping::Retrieval::kBlockTable);
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_EQ(lazy.color_of(node_at(id)), fast.color_of(node_at(id)))
        << "node " << to_string(node_at(id));
  }
}

TEST_P(ColorTheorem3, AllColorsWithinModuleCount) {
  const auto [levels, N, k] = GetParam();
  const CompleteBinaryTree tree(levels);
  const ColorMapping map(tree, N, k);
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_LT(map.color_of(node_at(id)), map.num_modules());
  }
}

TEST_P(ColorTheorem3, LevelTemplateCostAtMostTwo) {
  // Lemma 2 bounds L(K) by 1 conflict inside one height-N block; on taller
  // trees a run can straddle a block-generation boundary where the Gamma
  // lists change, costing at most one extra conflict (measured: exactly 2
  // occurs, e.g. H=14, N=6, k=3).
  const auto [levels, N, k] = GetParam();
  const ColorMapping map(CompleteBinaryTree(levels), N, k);
  const auto cost = evaluate_level_runs(map, tree_size(k));
  EXPECT_LE(cost.max_conflicts, 2u);
}

TEST_P(ColorTheorem3, OptimalityWitnessHolds) {
  // Theorem 2: the TP(K, N-k) instances have exactly N + K - k nodes and
  // are rainbow under COLOR — the lower-bound witness.
  const auto [levels, N, k] = GetParam();
  if (N <= k) GTEST_SKIP() << "witness needs N > k";
  const ColorMapping map(CompleteBinaryTree(levels), N, k);
  const auto verdict = verify_optimality_witness(map, N, k);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

// The paper sizes trees as H = h(N-k) + N; the implementation must also be
// correct for every other height (dummy levels merely truncated), so the
// sweep includes non-aligned heights.
INSTANTIATE_TEST_SUITE_P(
    Sweep, ColorTheorem3,
    ::testing::Values(
        // k = 1
        ColorParams{7, 3, 1}, ColorParams{8, 3, 1}, ColorParams{11, 4, 1},
        // k = 2
        ColorParams{8, 4, 2}, ColorParams{9, 4, 2}, ColorParams{10, 4, 2},
        ColorParams{11, 5, 2}, ColorParams{12, 5, 2},
        // k = 3
        ColorParams{9, 5, 3}, ColorParams{11, 5, 3}, ColorParams{12, 6, 3},
        ColorParams{13, 6, 3},
        // k = 4, including N < 2k (blocks overlap by more than half)
        ColorParams{11, 6, 4}, ColorParams{13, 7, 4}, ColorParams{12, 9, 4},
        // taller tree, several block generations
        ColorParams{14, 5, 2}, ColorParams{15, 6, 3}),
    param_name);

// --- Theorems 4 & 5: full parallelism, cost <= 1. -----------------------

class ColorTheorem4 : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ColorTheorem4, CostAtMostOneOnSizeMTemplates) {
  const std::uint32_t m = GetParam();
  const std::uint32_t M = static_cast<std::uint32_t>(tree_size(m));
  // Tree must host S(M) (m levels) and P(M) (M levels).
  const std::uint32_t levels = M + 2;
  const ColorMapping map = make_optimal_color_mapping(CompleteBinaryTree(levels), M);
  EXPECT_EQ(map.num_modules(), M);
  const auto verdict = verify_full_parallelism(map);
  EXPECT_TRUE(verdict.ok) << "M=" << M << " measured=" << verdict.measured
                          << " " << verdict.detail;
}

TEST_P(ColorTheorem4, NotConflictFreeAtFullParallelism) {
  // Section 4: no mapping is M-CF on {S(M), P(M)} — COLOR's cost is
  // exactly 1, not 0, so the <=1 bound is tight.
  const std::uint32_t m = GetParam();
  const std::uint32_t M = static_cast<std::uint32_t>(tree_size(m));
  const std::uint32_t levels = M + 2;
  const ColorMapping map = make_optimal_color_mapping(CompleteBinaryTree(levels), M);
  const auto s = evaluate_subtrees(map, M);
  const auto p = evaluate_paths(map, M);
  EXPECT_EQ(std::max(s.max_conflicts, p.max_conflicts), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ColorTheorem4, ::testing::Values(2u, 3u, 4u),
                         [](const auto& param_info) {
                           return "m" + std::to_string(param_info.param);
                         });

// --- Lemmas 3-5 and Theorem 6: oversized and composite templates. -------

TEST(ColorOversized, PathBoundLemma3) {
  const std::uint32_t m = 3;  // M = 7, N = 6, K = 3
  const std::uint32_t M = static_cast<std::uint32_t>(tree_size(m));
  const CompleteBinaryTree tree(16);
  const ColorMapping map = make_optimal_color_mapping(tree, M);
  for (std::uint64_t D = M; D <= 16; D += 3) {
    const auto cost = evaluate_paths(map, D);
    EXPECT_LE(cost.max_conflicts, bounds::color_path_bound(D, M))
        << "D=" << D;
  }
}

TEST(ColorOversized, LevelBoundLemma4) {
  const std::uint32_t M = 7;
  const CompleteBinaryTree tree(12);
  const ColorMapping map = make_optimal_color_mapping(tree, M);
  for (std::uint64_t D = M; D <= 64; D = 2 * D + 1) {
    const auto cost = evaluate_level_runs(map, D);
    EXPECT_LE(cost.max_conflicts, bounds::color_level_bound(D, M))
        << "D=" << D;
  }
}

TEST(ColorOversized, SubtreeBoundLemma5) {
  const std::uint32_t M = 7;
  const CompleteBinaryTree tree(12);
  const ColorMapping map = make_optimal_color_mapping(tree, M);
  for (std::uint32_t d = 3; d <= 8; ++d) {
    const std::uint64_t D = tree_size(d);
    const auto cost = evaluate_subtrees(map, D);
    EXPECT_LE(cost.max_conflicts, bounds::color_subtree_bound(D, M))
        << "D=" << D;
  }
}

TEST(ColorComposite, Theorem6BoundOnSampledComposites) {
  const std::uint32_t M = 7;
  const CompleteBinaryTree tree(14);
  const ColorMapping map = make_optimal_color_mapping(tree, M);
  Rng rng(2024);
  for (const std::uint64_t c : {1u, 2u, 4u, 8u}) {
    for (const std::uint64_t D : {16u, 64u, 256u}) {
      if (D < c) continue;
      const auto cost = sample_composites(map, D, c, 50, rng);
      EXPECT_GT(cost.instances, 0u) << "sampler starved at D=" << D << " c=" << c;
      EXPECT_LE(cost.max_conflicts, bounds::color_composite_bound(D, M, c))
          << "D=" << D << " c=" << c;
    }
  }
}

TEST(ColorEager, EagerWrapperMatchesBase) {
  const CompleteBinaryTree tree(10);
  const ColorMapping base(tree, 5, 2);
  const EagerColorMapping eager(base);
  EXPECT_EQ(eager.num_modules(), base.num_modules());
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_EQ(eager.color_of(node_at(id)), base.color_of(node_at(id)));
  }
}

TEST(ColorContract, ConstructorRejectsParametersOutsideTheRules) {
  // 1 <= k <= N <= 60, N > k on a tree taller than N (the block stride
  // N - k divides), and N + K - k colors that fit a Color. Construction
  // only, so a rejected mapping is never asked for a color.
  const CompleteBinaryTree tall(8);
  EXPECT_THROW(ColorMapping(tall, 3, 3), std::invalid_argument);
  EXPECT_NO_THROW(ColorMapping(CompleteBinaryTree(3), 3, 3));
  EXPECT_THROW(ColorMapping(tall, 3, 0), std::invalid_argument);
  EXPECT_THROW(ColorMapping(tall, 3, 4), std::invalid_argument);
  EXPECT_THROW(ColorMapping(tall, 61, 3), std::invalid_argument);
  EXPECT_NO_THROW(ColorMapping(tall, 60, 3));
  EXPECT_THROW(ColorMapping(tall, 40, 33), std::invalid_argument);
  EXPECT_NO_THROW(ColorMapping(tall, 40, 31));
}

TEST(ColorContract, FactoriesReachTheConstructorCheck) {
  // make_optimal_color_mapping: M < 3 leaves k = 0.
  const CompleteBinaryTree tall(8);
  for (const std::uint32_t M : {0u, 1u, 2u}) {
    EXPECT_THROW((void)make_optimal_color_mapping(tall, M),
                 std::invalid_argument)
        << "M=" << M;
  }
  EXPECT_NO_THROW((void)make_optimal_color_mapping(tall, 3));
  // make_cf_mapping_for_modules: k == 0, an M that leaves N == k on a
  // tall tree, and an M below K (N wraps past 60).
  EXPECT_THROW((void)make_cf_mapping_for_modules(tall, 5, 0),
               std::invalid_argument);
  EXPECT_THROW((void)make_cf_mapping_for_modules(tall, 7, 3),
               std::invalid_argument);
  EXPECT_NO_THROW((void)make_cf_mapping_for_modules(CompleteBinaryTree(3), 7, 3));
  EXPECT_THROW((void)make_cf_mapping_for_modules(tall, 2, 3),
               std::invalid_argument);
  EXPECT_NO_THROW((void)make_cf_mapping_for_modules(tall, 8, 3));
}

}  // namespace
}  // namespace pmtree
