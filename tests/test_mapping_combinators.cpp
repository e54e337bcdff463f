#include <gtest/gtest.h>

#include <numeric>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/analysis/load_balance.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "test_mappings.hpp"

namespace pmtree {
namespace {

TEST(PermutedMapping, IdentityPermutationIsNoop) {
  const CompleteBinaryTree tree(8);
  const ColorMapping base(tree, 5, 2);
  std::vector<Color> identity(base.num_modules());
  std::iota(identity.begin(), identity.end(), 0u);
  const PermutedMapping same(base, std::move(identity));
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_EQ(same.color_of(node_at(id)), base.color_of(node_at(id)));
  }
}

TEST(PermutedMapping, ConflictsAreInvariantUnderPermutation) {
  // The core property the analysis layer must respect: conflicts measure
  // structure, so any relabeling of modules leaves every family cost
  // unchanged.
  const CompleteBinaryTree tree(10);
  const ColorMapping base(tree, 5, 2);
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    const PermutedMapping shuffled = PermutedMapping::shuffled(base, rng);
    EXPECT_EQ(evaluate_subtrees(shuffled, 3).max_conflicts,
              evaluate_subtrees(base, 3).max_conflicts);
    EXPECT_EQ(evaluate_paths(shuffled, 5).max_conflicts,
              evaluate_paths(base, 5).max_conflicts);
    EXPECT_EQ(evaluate_level_runs(shuffled, 3).max_conflicts,
              evaluate_level_runs(base, 3).max_conflicts);
  }
}

TEST(PermutedMapping, LoadHistogramIsPermuted) {
  const CompleteBinaryTree tree(10);
  const ModuloMapping base(tree, 7);
  Rng rng(32);
  const PermutedMapping shuffled = PermutedMapping::shuffled(base, rng);
  auto base_loads = load_balance(base).per_module;
  auto perm_loads = load_balance(shuffled).per_module;
  std::sort(base_loads.begin(), base_loads.end());
  std::sort(perm_loads.begin(), perm_loads.end());
  EXPECT_EQ(base_loads, perm_loads);
}

TEST(PermutedMapping, ShuffledIsDeterministicPerSeed) {
  const CompleteBinaryTree tree(8);
  const ModuloMapping base(tree, 13);
  Rng a(5), b(5);
  const PermutedMapping pa = PermutedMapping::shuffled(base, a);
  const PermutedMapping pb = PermutedMapping::shuffled(base, b);
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_EQ(pa.color_of(node_at(id)), pb.color_of(node_at(id)));
  }
}

TEST(PermutedMapping, NameAndModules) {
  const CompleteBinaryTree tree(6);
  const ModuloMapping base(tree, 9);
  Rng rng(1);
  const PermutedMapping p = PermutedMapping::shuffled(base, rng);
  EXPECT_EQ(p.num_modules(), 9u);
  EXPECT_EQ(p.name(), "MODULO(M=9)+perm");
}

TEST(DegradedMapping, EmptyDeadSetIsNoop) {
  const CompleteBinaryTree tree(8);
  const ModuloMapping base(tree, 9);
  const DegradedMapping same(base, {});
  EXPECT_EQ(same.live_modules(), 9u);
  EXPECT_EQ(same.num_modules(), 9u);
  EXPECT_EQ(same.name(), "MODULO(M=9)+degraded");
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_EQ(same.color_of(node_at(id)), base.color_of(node_at(id)));
  }
}

TEST(DegradedMapping, FoldsDeadColorsRoundRobinOntoSurvivors) {
  const CompleteBinaryTree tree(8);
  const ModuloMapping base(tree, 6);
  // Dead {0, 2, 4} -> live {1, 3, 5}: j-th dead folds to live[j % 3].
  const DegradedMapping degraded(base, {4, 0, 2});
  EXPECT_EQ(degraded.live_modules(), 3u);
  EXPECT_EQ(degraded.redirect_table(),
            (std::vector<Color>{1, 1, 3, 3, 5, 5}));
  std::vector<std::uint64_t> loads(6, 0);
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    loads[degraded.color_of(node_at(id))] += 1;
  }
  EXPECT_EQ(loads[0] + loads[2] + loads[4], 0u);
  // Every node still lands somewhere: survivors absorb the whole tree.
  EXPECT_EQ(loads[1] + loads[3] + loads[5], tree.size());
}

TEST(DegradedMapping, BatchKernelMatchesScalar) {
  const CompleteBinaryTree tree(9);
  const ColorMapping base(tree, 5, 2);
  const DegradedMapping degraded(base, {1, 2});
  std::vector<Node> nodes;
  for (std::uint64_t id = 0; id < tree.size(); id += 3) {
    nodes.push_back(node_at(id));
  }
  std::vector<Color> colors(nodes.size());
  degraded.color_of_batch(nodes, colors);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ASSERT_EQ(colors[i], degraded.color_of(nodes[i])) << "node " << i;
  }
}

TEST(DegradedMapping, ConflictsOnlyDegradeRelativeToHealthy) {
  // Folding colors can only merge previously distinct modules inside a
  // template instance: per-instance conflicts are monotonically >= the
  // healthy mapping's, never better. (The fault layer's whole claim is
  // "degrades quantifiably", so pin the direction.)
  const CompleteBinaryTree tree(10);
  const ColorMapping base(tree, 5, 2);
  const DegradedMapping degraded(base, {0, 3});
  EXPECT_GE(evaluate_paths(degraded, 5).max_conflicts,
            evaluate_paths(base, 5).max_conflicts);
  EXPECT_GE(evaluate_level_runs(degraded, 4).max_conflicts,
            evaluate_level_runs(base, 4).max_conflicts);
  EXPECT_GE(evaluate_subtrees(degraded, 3).max_conflicts,
            evaluate_subtrees(base, 3).max_conflicts);
}

}  // namespace
}  // namespace pmtree
