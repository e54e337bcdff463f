// Deep-tree behaviour: the lazy retrieval paths let pmtree address trees
// far too large to materialize (up to 2^60 nodes). These tests exercise
// H in the 30-50 range with sampled template instances — conflict-freeness
// must hold at any depth, and arithmetic must not overflow.
#include <gtest/gtest.h>

#include <algorithm>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/analysis/verify.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/templates/sampler.hpp"
#include "pmtree/util/bits.hpp"

namespace pmtree {
namespace {

class DeepTrees : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DeepTrees, ColorStaysConflictFreeOnSampledTemplates) {
  const std::uint32_t H = GetParam();
  const CompleteBinaryTree tree(H);
  const std::uint32_t N = 7, k = 3;
  const ColorMapping map(tree, N, k);
  Rng rng(H);
  for (int trial = 0; trial < 300; ++trial) {
    const auto subtree = sample_subtree(tree, tree_size(k), rng);
    ASSERT_TRUE(subtree.has_value());
    EXPECT_EQ(conflicts(map, subtree->nodes()), 0u);
    const auto path = sample_path(tree, N, rng);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(conflicts(map, path->nodes()), 0u);
  }
}

TEST_P(DeepTrees, ColorBlockTableAgreesWithLazyOnSamples) {
  const std::uint32_t H = GetParam();
  const CompleteBinaryTree tree(H);
  const ColorMapping lazy(tree, 8, 3);
  const ColorMapping fast(tree, 8, 3, internal::GammaVariant::kCorrect,
                          ColorMapping::Retrieval::kBlockTable);
  Rng rng(H * 31);
  for (int trial = 0; trial < 2000; ++trial) {
    const Node n = node_at(rng.below(tree.size()));
    ASSERT_EQ(lazy.color_of(n), fast.color_of(n)) << to_string(n);
  }
}

TEST_P(DeepTrees, ColorLevelRunsStayCheapOnSamples) {
  const std::uint32_t H = GetParam();
  const CompleteBinaryTree tree(H);
  const ColorMapping map(tree, 7, 3);
  Rng rng(H * 7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto run = sample_level_run(tree, 7, rng);
    ASSERT_TRUE(run.has_value());
    EXPECT_LE(conflicts(map, run->nodes()), 2u);
  }
}

TEST_P(DeepTrees, LabelTreeColorsLegalAndBlockPathsRainbow) {
  const std::uint32_t H = GetParam();
  const CompleteBinaryTree tree(H);
  const std::uint32_t M = 127;
  const LabelTreeMapping map(tree, M);
  const std::uint32_t m = map.m();
  Rng rng(H * 13);
  std::vector<Color> colors;
  for (int trial = 0; trial < 300; ++trial) {
    // A random whole-block ascending path: must be rainbow (MICRO-LABEL's
    // per-block CF property), at any depth.
    const std::uint32_t jb = static_cast<std::uint32_t>(
        rng.below(tree.levels() / m));
    const std::uint32_t deepest = jb * m + m - 1;
    Node cur = v(rng.below(pow2(deepest)), deepest);
    colors.clear();
    for (std::uint32_t step = 0; step < m; ++step) {
      const Color c = map.color_of(cur);
      ASSERT_LT(c, M);
      colors.push_back(c);
      cur = parent(cur);
    }
    std::sort(colors.begin(), colors.end());
    EXPECT_EQ(std::adjacent_find(colors.begin(), colors.end()), colors.end());
  }
}

TEST_P(DeepTrees, OptimalityWitnessStillHolds) {
  const std::uint32_t H = GetParam();
  // The witness family at anchor level N - k is small (2^{N-k} instances)
  // regardless of H.
  const std::uint32_t N = 9, k = 3;
  const ColorMapping map(CompleteBinaryTree(H), N, k);
  const auto verdict = verify_optimality_witness(map, N, k);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeepTrees,
                         ::testing::Values(30u, 40u, 50u),
                         [](const auto& param_info) {
                           std::string name = "H";
                           name += std::to_string(param_info.param);
                           return name;
                         });

}  // namespace
}  // namespace pmtree
