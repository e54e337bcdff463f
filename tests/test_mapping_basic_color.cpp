// BASIC-COLOR (single-block) correctness: the hand-checkable examples from
// the paper's Section 3.1, cross-validation of lazy retrieval against the
// eager BOTTOM simulation, and the conflict-freeness guarantees of
// Theorem 1 / Lemma 1 / Lemma 2 on exhaustive template families.
#include "pmtree/mapping/color.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/analysis/verify.hpp"
#include "pmtree/util/bits.hpp"

namespace pmtree {
namespace {

TEST(BasicColor, SigmaPhaseColorsTopLevelsWithBfsIds) {
  // Paper line 6: color v(i, j) with color 2^j + i - 1, i.e. bfs_id.
  const BasicColorMapping map(CompleteBinaryTree(5), 5, 3);
  for (std::uint32_t j = 0; j < 3; ++j) {
    for (std::uint64_t i = 0; i < pow2(j); ++i) {
      EXPECT_EQ(map.color_of(v(i, j)), bfs_id(v(i, j)));
    }
  }
}

TEST(BasicColor, HandWorkedExampleK3N4) {
  // N = 4, k = 2 (K = 3): 5 colors. Worked by hand from the pseudocode.
  const BasicColorMapping map(CompleteBinaryTree(4), 4, 2);
  EXPECT_EQ(map.num_modules(), 5u);

  EXPECT_EQ(map.color_of(v(0, 0)), 0u);
  EXPECT_EQ(map.color_of(v(0, 1)), 1u);
  EXPECT_EQ(map.color_of(v(1, 1)), 2u);

  // Level 2: block 0 copies the sibling subtree root's color (v(1,1)=2)
  // then takes Gamma[0]=3; block 1 copies v(0,1)=1 then Gamma[0]=3.
  EXPECT_EQ(map.color_of(v(0, 2)), 2u);
  EXPECT_EQ(map.color_of(v(1, 2)), 3u);
  EXPECT_EQ(map.color_of(v(2, 2)), 1u);
  EXPECT_EQ(map.color_of(v(3, 2)), 3u);

  // Level 3: sibling-subtree roots are the level-2 nodes; Gamma[1]=4.
  EXPECT_EQ(map.color_of(v(0, 3)), 3u);
  EXPECT_EQ(map.color_of(v(1, 3)), 4u);
  EXPECT_EQ(map.color_of(v(2, 3)), 2u);
  EXPECT_EQ(map.color_of(v(3, 3)), 4u);
  EXPECT_EQ(map.color_of(v(4, 3)), 3u);
  EXPECT_EQ(map.color_of(v(5, 3)), 4u);
  EXPECT_EQ(map.color_of(v(6, 3)), 1u);
  EXPECT_EQ(map.color_of(v(7, 3)), 4u);
}

TEST(BasicColor, DegenerateK1ColorsByLevel) {
  // k = 1: every block is one node, so level j gets the single color
  // Gamma[j-1] = j: the mapping degenerates to color = level.
  const BasicColorMapping map(CompleteBinaryTree(6), 6, 1);
  EXPECT_EQ(map.num_modules(), 6u);
  for (std::uint32_t j = 0; j < 6; ++j) {
    for (std::uint64_t i = 0; i < pow2(j); ++i) {
      EXPECT_EQ(map.color_of(v(i, j)), j);
    }
  }
}

TEST(BasicColor, LazyRetrievalMatchesEagerTable) {
  for (std::uint32_t k = 1; k <= 4; ++k) {
    for (std::uint32_t N = k; N <= k + 5 && N <= 10; ++N) {
      const CompleteBinaryTree tree(N);
      const BasicColorMapping map(tree, N, k);
      const auto table = map.materialize();
      ASSERT_EQ(table.size(), tree.size());
      for (std::uint64_t id = 0; id < tree.size(); ++id) {
        ASSERT_EQ(map.color_of(node_at(id)), table[id])
            << "N=" << N << " k=" << k << " node " << to_string(node_at(id));
      }
    }
  }
}

TEST(BasicColor, UsesExactlyTheAnnouncedColors) {
  const BasicColorMapping map(CompleteBinaryTree(7), 7, 3);
  const auto table = map.materialize();
  std::vector<bool> seen(map.num_modules(), false);
  for (const Color c : table) {
    ASSERT_LT(c, map.num_modules());
    seen[c] = true;
  }
  for (std::uint32_t c = 0; c < map.num_modules(); ++c) {
    EXPECT_TRUE(seen[c]) << "color " << c << " never used";
  }
}

// --- Theorem 1: (N + K - k)-conflict-free on S(K) and P(N). -------------

struct BasicColorParams {
  std::uint32_t N;
  std::uint32_t k;
};

class BasicColorTheorem1 : public ::testing::TestWithParam<BasicColorParams> {};

TEST_P(BasicColorTheorem1, ConflictFreeOnSubtreesAndPaths) {
  const auto [N, k] = GetParam();
  const CompleteBinaryTree tree(N);
  const BasicColorMapping map(tree, N, k);
  const auto verdict = verify_cf_elementary(map, tree_size(k), N);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

TEST_P(BasicColorTheorem1, ConflictFreeOnEveryTpFamily) {
  // Lemma 1: CF on TP(K, j) for every j <= N.
  const auto [N, k] = GetParam();
  const CompleteBinaryTree tree(N);
  const BasicColorMapping map(tree, N, k);
  const auto verdict = verify_tp_rainbow(map, tree_size(k), N);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

TEST_P(BasicColorTheorem1, LevelTemplateCostAtMostOne) {
  // Lemma 2: at most 1 conflict on L(K).
  const auto [N, k] = GetParam();
  const CompleteBinaryTree tree(N);
  const BasicColorMapping map(tree, N, k);
  const auto verdict = verify_level_cost(map, tree_size(k), 1);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BasicColorTheorem1,
    ::testing::Values(BasicColorParams{1, 1}, BasicColorParams{3, 1},
                      BasicColorParams{6, 1}, BasicColorParams{2, 2},
                      BasicColorParams{4, 2}, BasicColorParams{7, 2},
                      BasicColorParams{10, 2}, BasicColorParams{3, 3},
                      BasicColorParams{5, 3}, BasicColorParams{8, 3},
                      BasicColorParams{11, 3}, BasicColorParams{4, 4},
                      BasicColorParams{6, 4}, BasicColorParams{9, 4},
                      BasicColorParams{12, 4}, BasicColorParams{5, 5},
                      BasicColorParams{10, 5}),
    [](const auto& param_info) {
      std::string name = "N";
      name += std::to_string(param_info.param.N);
      name += "_k";
      name += std::to_string(param_info.param.k);
      return name;
    });

TEST(BasicColor, RejectsTreesTallerThanOneBlock) {
  // BASIC-COLOR colors a single block: a tree of at most N levels.
  EXPECT_NO_THROW(BasicColorMapping(CompleteBinaryTree(4), 4, 2));
  EXPECT_THROW(BasicColorMapping(CompleteBinaryTree(5), 4, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace pmtree
