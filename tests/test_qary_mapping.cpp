#include "pmtree/qary/qary_mapping.hpp"

#include <gtest/gtest.h>

namespace pmtree {
namespace {

struct QaryParams {
  std::uint32_t q;
  std::uint32_t levels;
};

class QaryMappings : public ::testing::TestWithParam<QaryParams> {};

TEST_P(QaryMappings, LevelModIsConflictFreeOnPaths) {
  const auto [q, levels] = GetParam();
  const QaryTree tree(q, levels);
  for (std::uint32_t M = 2; M <= levels; ++M) {
    const QaryLevelModMapping map(tree, M);
    EXPECT_EQ(evaluate_qary_paths(map, M), 0u) << "q=" << q << " M=" << M;
  }
}

TEST_P(QaryMappings, LevelModConflictsBeyondM) {
  const auto [q, levels] = GetParam();
  if (levels < 4) GTEST_SKIP();
  const QaryTree tree(q, levels);
  const QaryLevelModMapping map(tree, 3);
  EXPECT_EQ(evaluate_qary_paths(map, 4), 1u);
}

TEST_P(QaryMappings, BrickMappingIsCfOnAlignedSubtrees) {
  const auto [q, levels] = GetParam();
  const std::uint32_t t = 2;
  const QaryTree tree(q, levels);
  const QarySubtreeMapping map(tree, t);
  EXPECT_EQ(map.num_modules(), tree.subtree_size(t));
  EXPECT_EQ(evaluate_qary_aligned_subtrees(map, t, t), 0u);
  // Sub-brick aligned subtrees are rainbow too.
  EXPECT_EQ(evaluate_qary_aligned_subtrees(map, 1, t), 0u);
}

TEST_P(QaryMappings, BrickMappingConflictsOnUnalignedSubtrees) {
  // A subtree rooted at the last brick level has its q children at the
  // next brick's roots — all colored 0: unaligned access conflicts, which
  // is exactly why the refs' specialized constructions exist.
  const auto [q, levels] = GetParam();
  if (levels < 3) GTEST_SKIP();
  const QaryTree tree(q, levels);
  const QarySubtreeMapping map(tree, 2);
  EXPECT_GE(evaluate_qary_subtrees(map, 2), q - 1);
}

TEST_P(QaryMappings, ColorsWithinRange) {
  const auto [q, levels] = GetParam();
  const QaryTree tree(q, levels);
  const QarySubtreeMapping brick(tree, 2);
  const QaryModuloMapping mod(tree, 7);
  const QaryRandomMapping rnd(tree, 7, 3);
  for (std::uint32_t j = 0; j < tree.levels(); ++j) {
    for (std::uint64_t i = 0; i < tree.level_width(j); ++i) {
      const QaryNode n{j, i};
      ASSERT_LT(brick.color_of(n), brick.num_modules());
      ASSERT_LT(mod.color_of(n), 7u);
      ASSERT_LT(rnd.color_of(n), 7u);
    }
  }
}

TEST_P(QaryMappings, ModuloIsPerfectOnLevelRuns) {
  const auto [q, levels] = GetParam();
  const QaryTree tree(q, levels);
  const QaryModuloMapping map(tree, 5);
  EXPECT_EQ(evaluate_qary_level_runs(map, 5), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, QaryMappings,
                         ::testing::Values(QaryParams{2, 6}, QaryParams{3, 5},
                                           QaryParams{4, 4}, QaryParams{5, 4}),
                         [](const auto& param_info) {
                           std::string name = "q";
                           name += std::to_string(param_info.param.q);
                           name += "_L";
                           name += std::to_string(param_info.param.levels);
                           return name;
                         });

TEST(QaryConflicts, CountsMultiplicity) {
  const QaryTree tree(3, 3);
  const QaryLevelModMapping map(tree, 2);
  // Nodes at levels 0 and 2 share color 0.
  const std::vector<QaryNode> nodes{QaryNode{0, 0}, QaryNode{2, 4},
                                    QaryNode{1, 1}};
  EXPECT_EQ(qary_conflicts(map, nodes), 1u);
  EXPECT_EQ(qary_conflicts(map, {}), 0u);
}

TEST(QaryBrick, ColorIsBfsPositionInsideBrick) {
  const QaryTree tree(3, 4);
  const QarySubtreeMapping map(tree, 2);
  // Level 0 (brick root): color 0. Level 1: children at positions 1..3.
  EXPECT_EQ(map.color_of(QaryNode{0, 0}), 0u);
  EXPECT_EQ(map.color_of(QaryNode{1, 0}), 1u);
  EXPECT_EQ(map.color_of(QaryNode{1, 2}), 3u);
  // Level 2 starts new bricks: roots color 0 again.
  EXPECT_EQ(map.color_of(QaryNode{2, 0}), 0u);
  EXPECT_EQ(map.color_of(QaryNode{2, 5}), 0u);
  // Level 3: child c of brick root r has color 1 + c.
  EXPECT_EQ(map.color_of(QaryNode{3, 4}), 2u);  // child 1 of root index 1
}

}  // namespace
}  // namespace pmtree
