// Coverage for the smaller public-API surfaces not exercised elsewhere:
// bulk color retrieval, RNG edges, node arithmetic at extreme depths, and
// the umbrella header itself (this file includes only pmtree/pmtree.hpp).
#include <gtest/gtest.h>

#include "pmtree/pmtree.hpp"

namespace pmtree {
namespace {

TEST(ApiCoverage, ColorsOfBulkMatchesScalar) {
  const CompleteBinaryTree tree(8);
  const ColorMapping map(tree, 5, 2);
  const std::vector<Node> nodes{v(0, 0), v(3, 3), v(100, 7)};
  const auto colors = map.colors_of(nodes);
  ASSERT_EQ(colors.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(colors[i], map.color_of(nodes[i]));
  }
}

TEST(ApiCoverage, RngBetweenDegenerateRange) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.between(42, 42), 42u);
}

TEST(ApiCoverage, NodeArithmeticAtDepth59) {
  const Node deep = v((std::uint64_t{1} << 59) - 1, 59);  // rightmost node
  EXPECT_EQ(ancestor(deep, 59), v(0, 0));
  EXPECT_EQ(node_at(bfs_id(deep)), deep);
  EXPECT_EQ(parent(deep), v((std::uint64_t{1} << 58) - 1, 58));
  const CompleteBinaryTree tree(60);
  EXPECT_TRUE(tree.contains(deep));
  EXPECT_TRUE(tree.is_leaf(deep));  // level 59 is the last of 60 levels
}

TEST(ApiCoverage, FamilyCostWitnessForConflictFreeMappingIsAnyInstance) {
  const CompleteBinaryTree tree(6);
  const BasicColorMapping map(tree, 6, 2);
  const auto cost = evaluate_subtrees(map, 3);
  EXPECT_EQ(cost.max_conflicts, 0u);
  // Even at zero conflicts a witness instance is reported (first seen).
  EXPECT_EQ(cost.witness.size(), 3u);
  EXPECT_EQ(cost.mean_conflicts, 0.0);
}

TEST(ApiCoverage, VerdictBoolConversion) {
  Verdict ok;
  ok.ok = true;
  EXPECT_TRUE(static_cast<bool>(ok));
  Verdict bad;
  EXPECT_FALSE(static_cast<bool>(bad));
}

TEST(ApiCoverage, MakeOptimalRoundsDownToPowerOfTwoMinusOne) {
  const CompleteBinaryTree tree(12);
  // M = 20 -> largest 2^m - 1 <= 20 is 15 (m = 4): N = 11, K = 7.
  const ColorMapping map = make_optimal_color_mapping(tree, 20);
  EXPECT_EQ(map.num_modules(), 15u);
  EXPECT_EQ(map.N(), 11u);
  EXPECT_EQ(map.K(), 7u);
}

TEST(ApiCoverage, CfMappingForModulesSpendsTheWholeBudget) {
  const CompleteBinaryTree tree(14);
  for (const std::uint32_t k : {1u, 2u, 3u}) {
    for (const std::uint32_t M : {8u, 12u, 20u}) {
      const ColorMapping map = make_cf_mapping_for_modules(tree, M, k);
      EXPECT_EQ(map.num_modules(), M);
      EXPECT_EQ(map.k(), k);
      // CF on the promised families (sampled; exhaustive proofs live in
      // the theorem suites).
      Rng rng(M * 31 + k);
      // N may exceed the tree height; the CF guarantee then covers every
      // path the tree actually has.
      const std::uint64_t path_len = std::min<std::uint64_t>(map.N(), tree.levels());
      for (int t = 0; t < 50; ++t) {
        const auto p = sample_path(tree, path_len, rng);
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(conflicts(map, p->nodes()), 0u) << "M=" << M << " k=" << k;
        const auto s = sample_subtree(tree, map.K(), rng);
        ASSERT_TRUE(s.has_value());
        EXPECT_EQ(conflicts(map, s->nodes()), 0u) << "M=" << M << " k=" << k;
      }
    }
  }
}

TEST(ApiCoverage, MappingNamesAreStable) {
  const CompleteBinaryTree tree(8);
  EXPECT_EQ(ColorMapping(tree, 5, 2).name(), "COLOR(N=5,K=3)");
  EXPECT_EQ(BasicColorMapping(CompleteBinaryTree(5), 5, 2).name(),
            "BASIC-COLOR(N=5,K=3)");
  EXPECT_EQ(LabelTreeMapping(tree, 15).name(), "LABEL-TREE(M=15)");
  EXPECT_EQ(EagerColorMapping(ColorMapping(tree, 5, 2)).name(),
            "COLOR(N=5,K=3)+table");
  EXPECT_EQ(LevelModMapping(tree, 9).name(), "LEVEL-MOD(M=9)");
}

}  // namespace
}  // namespace pmtree
