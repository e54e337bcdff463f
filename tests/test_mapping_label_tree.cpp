// LABEL-TREE: structural invariants of the reconstruction (group windows,
// micro-table consistency), agreement of O(1)-table and O(log M)-recursive
// retrieval, the Theorem 7 conflict scale and load balance, and the
// Lemma 7 scaling behaviour on oversized templates.
#include "pmtree/mapping/label_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pmtree/analysis/bounds.hpp"
#include "pmtree/analysis/cost.hpp"
#include "pmtree/analysis/load_balance.hpp"
#include "pmtree/util/bits.hpp"

namespace pmtree {
namespace {

class LabelTreeParams : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LabelTreeParams, ParametersMatchPaperFormulas) {
  const std::uint32_t M = GetParam();
  const LabelTreeMapping map(CompleteBinaryTree(12), M);
  EXPECT_EQ(map.m(), ceil_log2(M));
  EXPECT_GE(map.l(), 1u);
  EXPECT_LT(map.l(), map.m());
  EXPECT_EQ(map.ell(), pow2(map.l()) + pow2(map.m() - map.l()) - 1);
  EXPECT_GE(map.group_count(), 1u);
  EXPECT_LE(map.group_count() * map.ell(), M);
}

TEST_P(LabelTreeParams, TableAndRecursiveRetrievalAgree) {
  const std::uint32_t M = GetParam();
  const CompleteBinaryTree tree(13);
  const LabelTreeMapping with_table(tree, M, LabelTreeMapping::Retrieval::kTable);
  const LabelTreeMapping recursive(tree, M,
                                   LabelTreeMapping::Retrieval::kRecursive);
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_EQ(with_table.color_of(node_at(id)), recursive.color_of(node_at(id)))
        << "M=" << M << " node " << to_string(node_at(id));
  }
}

TEST_P(LabelTreeParams, ColorsWithinModuleRange) {
  const std::uint32_t M = GetParam();
  const CompleteBinaryTree tree(12);
  const LabelTreeMapping map(tree, M);
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_LT(map.color_of(node_at(id)), M);
  }
}

TEST_P(LabelTreeParams, PathsWithinOneBlockAreConflictFree) {
  // MICRO-LABEL is claimed l-CF on P(m) within each block subtree; since
  // blocks are disjoint, every ascending path of m nodes that stays inside
  // one block must be rainbow.
  const std::uint32_t M = GetParam();
  const CompleteBinaryTree tree(12);
  const LabelTreeMapping map(tree, M);
  const std::uint32_t m = map.m();
  if (m < 2 || m > tree.levels()) GTEST_SKIP();
  std::vector<Color> colors;
  for (std::uint32_t jb = 0; (jb + 1) * m <= tree.levels(); ++jb) {
    const std::uint32_t deepest = jb * m + m - 1;
    for (std::uint64_t i = 0; i < tree.level_width(deepest); ++i) {
      colors.clear();
      Node cur = v(i, deepest);
      for (std::uint32_t step = 0; step < m; ++step) {
        colors.push_back(map.color_of(cur));
        if (cur.level == 0) break;
        cur = parent(cur);
      }
      std::sort(colors.begin(), colors.end());
      ASSERT_EQ(std::adjacent_find(colors.begin(), colors.end()), colors.end())
          << "conflicting block path below v(" << i << ", " << deepest
          << ") with M=" << M;
    }
  }
}

TEST_P(LabelTreeParams, LoadBalanceIsNearlyPerfect) {
  // Theorem 7: memory load ratio 1 + o(1).
  const std::uint32_t M = GetParam();
  const CompleteBinaryTree tree(15);
  const LabelTreeMapping map(tree, M);
  const auto report = load_balance(map);
  EXPECT_EQ(report.used_modules, M);
  EXPECT_LE(report.ratio(), 1.6) << "max=" << report.max_load
                                 << " min=" << report.min_load;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LabelTreeParams,
                         ::testing::Values(3u, 7u, 15u, 31u, 63u, 127u, 100u),
                         [](const auto& param_info) {
                           return "M" + std::to_string(param_info.param);
                         });

TEST(LabelTree, ConflictScaleOnSizeMTemplates) {
  // Theorem 7: O(sqrt(M / log M)) conflicts on elementary templates of
  // size M. Use a generous constant of 4 on the scale as the envelope.
  for (const std::uint32_t M : {15u, 31u, 63u}) {
    const CompleteBinaryTree tree(14);
    const LabelTreeMapping map(tree, M);
    const double envelope = 4.0 * bounds::label_tree_m_scale(M) + 2.0;
    ASSERT_TRUE(is_tree_size(M));
    const auto s = evaluate_subtrees(map, M);
    const auto p = evaluate_paths(map, M);
    const auto l = evaluate_level_runs(map, M);
    EXPECT_LE(static_cast<double>(s.max_conflicts), envelope) << "M=" << M;
    EXPECT_LE(static_cast<double>(p.max_conflicts), envelope) << "M=" << M;
    EXPECT_LE(static_cast<double>(l.max_conflicts), envelope) << "M=" << M;
  }
}

TEST(LabelTree, ScalingOnOversizedLevelRuns) {
  // Lemma 7(1): Cost(L(D)) = O(D / sqrt(M log M)); check the measured
  // cost grows at most linearly in D with the predicted slope envelope.
  const std::uint32_t M = 63;
  const CompleteBinaryTree tree(14);
  const LabelTreeMapping map(tree, M);
  for (const std::uint64_t D : {64u, 128u, 256u, 512u}) {
    const auto cost = evaluate_level_runs(map, D);
    const double envelope = 6.0 * bounds::label_tree_d_scale(D, M) + 4.0;
    EXPECT_LE(static_cast<double>(cost.max_conflicts), envelope) << "D=" << D;
  }
}

TEST(LabelTree, DegenerateSmallMStillLegal) {
  const CompleteBinaryTree tree(8);
  const LabelTreeMapping map(tree, 3);
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_LT(map.color_of(node_at(id)), 3u);
  }
}

TEST(LabelTree, RejectsFewerThanThreeModules) {
  // Construction only, so a rejected mapping is never asked for a color.
  const CompleteBinaryTree tree(8);
  EXPECT_THROW(LabelTreeMapping(tree, 2), std::invalid_argument);
  EXPECT_NO_THROW(LabelTreeMapping(tree, 3));
}

}  // namespace
}  // namespace pmtree
