// Baseline mappings: legality, determinism, and the *negative* results the
// paper's comparison needs — naive schemes are far from conflict-free on
// the very templates COLOR handles for free.
#include "pmtree/mapping/baselines.hpp"

#include <gtest/gtest.h>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/util/bits.hpp"
#include "test_mappings.hpp"

namespace pmtree {
namespace {

TEST(Baselines, ColorsWithinRangeAndDeterministic) {
  const CompleteBinaryTree tree(10);
  const ModuloMapping mod(tree, 7);
  const LevelShiftMapping shift(tree, 7);
  const RandomMapping rnd(tree, 7, 42);
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    const Node n = node_at(id);
    ASSERT_LT(mod.color_of(n), 7u);
    ASSERT_LT(shift.color_of(n), 7u);
    ASSERT_LT(rnd.color_of(n), 7u);
    ASSERT_EQ(rnd.color_of(n), rnd.color_of(n));
  }
}

TEST(Baselines, RandomMappingSeedChangesColors) {
  const CompleteBinaryTree tree(10);
  const RandomMapping a(tree, 31, 1);
  const RandomMapping b(tree, 31, 2);
  std::uint64_t differing = 0;
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    if (a.color_of(node_at(id)) != b.color_of(node_at(id))) ++differing;
  }
  EXPECT_GT(differing, tree.size() / 2);
}

TEST(Baselines, ModuloIsPerfectOnLevelRunsButBadOnPaths) {
  const CompleteBinaryTree tree(12);
  const std::uint32_t M = 7;
  const ModuloMapping map(tree, M);
  // Consecutive BFS ids: any run of <= M nodes in a level is rainbow.
  EXPECT_EQ(evaluate_level_runs(map, M).max_conflicts, 0u);
  // Paths, however, conflict: e.g. the leftmost path visits ids 2^j - 1,
  // which repeat residues mod 7 (2^j mod 7 cycles with period 3).
  EXPECT_GT(evaluate_paths(map, M).max_conflicts, 0u);
}

TEST(Baselines, LevelShiftIsPerfectOnShortLevelRunsButBadOnSubtrees) {
  const CompleteBinaryTree tree(12);
  const std::uint32_t M = 7;
  const LevelShiftMapping map(tree, M);
  EXPECT_EQ(evaluate_level_runs(map, M).max_conflicts, 0u);
  EXPECT_GT(evaluate_subtrees(map, M).max_conflicts, 0u);
}

TEST(Baselines, LevelModIsConflictFreeOnPathsOnly) {
  // The Section 1.2 "specialist": CF on P(M) with just M modules, but the
  // worst possible on level runs (a run lives on ONE module) and bad on
  // subtrees (each level of the subtree collapses to one module).
  const CompleteBinaryTree tree(12);
  const std::uint32_t M = 7;
  const LevelModMapping map(tree, M);
  EXPECT_EQ(evaluate_paths(map, M).max_conflicts, 0u);
  EXPECT_EQ(evaluate_level_runs(map, M).max_conflicts, M - 1);
  // S(7) has 4 leaves on one module: 3 conflicts.
  EXPECT_EQ(evaluate_subtrees(map, 7).max_conflicts, 3u);
}

TEST(Baselines, LevelModConflictsOnPathsLongerThanM) {
  const CompleteBinaryTree tree(12);
  const LevelModMapping map(tree, 7);
  EXPECT_EQ(evaluate_paths(map, 8).max_conflicts, 1u);
  EXPECT_EQ(evaluate_paths(map, 12).max_conflicts, 1u);
}

TEST(Baselines, RandomIsNowhereConflictFreeAtSizeM) {
  const CompleteBinaryTree tree(16);  // P(15) needs at least 15 levels
  const std::uint32_t M = 15;
  const RandomMapping map(tree, M, 7);
  // Balls-in-bins: with thousands of instances of size M over M bins,
  // conflicts are essentially certain for every family.
  EXPECT_GT(evaluate_paths(map, M).max_conflicts, 0u);
  EXPECT_GT(evaluate_subtrees(map, M).max_conflicts, 0u);
  EXPECT_GT(evaluate_level_runs(map, M).max_conflicts, 0u);
}

}  // namespace
}  // namespace pmtree
