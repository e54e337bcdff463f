#include "pmtree/mapping/combinators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/util/rng.hpp"
#include "test_mappings.hpp"

namespace pmtree {
namespace {

// The brute-force oracle of the MigratedMapping contract: node n keeps its
// base color above the granularity level and is rotated by its subtree's
// table entry (mod M) at or below it.
Color oracle_color(const TreeMapping& base, std::uint32_t level,
                   const std::vector<Color>& rot, Node n) {
  const Color c = base.color_of(n);
  if (n.level < level) return c;
  const std::uint32_t sid = static_cast<std::uint32_t>(
      n.index >> (n.level - level));
  return (c + rot[sid]) % base.num_modules();
}

std::vector<Color> random_rotation(Rng& rng, std::uint32_t level,
                                   std::uint32_t modules) {
  std::vector<Color> rot(std::size_t{1} << level);
  for (Color& r : rot) r = static_cast<Color>(rng.below(modules));
  return rot;
}

TEST(MigratedMapping, MatchesBruteForceOracleAcrossRandomConfigs) {
  // 60 seeded configurations sweeping tree depth, module count, base
  // mapping family, granularity level and rotation table; every node of
  // every tree is checked against the closed-form oracle.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    const std::uint32_t levels =
        static_cast<std::uint32_t>(rng.between(6, 12));
    const CompleteBinaryTree tree(levels);
    const std::uint32_t modules =
        static_cast<std::uint32_t>(rng.between(3, 31));
    std::unique_ptr<TreeMapping> base;
    if (rng.chance(1, 2)) {
      base = std::make_unique<ColorMapping>(
          make_optimal_color_mapping(tree, modules));
    } else {
      base = std::make_unique<ModuloMapping>(tree, modules);
    }
    const std::uint32_t subtree_level =
        static_cast<std::uint32_t>(rng.below(std::min(levels, 7u)));
    // make_optimal_color_mapping derives its own module count (<= the
    // requested M) from the paper's closed form — rotations must stay
    // below the mapping's ACTUAL color space.
    const std::vector<Color> rot =
        random_rotation(rng, subtree_level, base->num_modules());

    const MigratedMapping migrated(*base, subtree_level,
                                   std::vector<Color>(rot));
    ASSERT_EQ(migrated.num_modules(), base->num_modules());
    ASSERT_EQ(migrated.subtree_level(), subtree_level);
    ASSERT_EQ(migrated.rotation_table(), rot);
    for (std::uint64_t id = 0; id < tree.size(); ++id) {
      const Node n = node_at(id);
      ASSERT_EQ(migrated.color_of(n),
                oracle_color(*base, subtree_level, rot, n))
          << "node id=" << id;
    }
  }
}

TEST(MigratedMapping, BatchKernelMatchesScalar) {
  // The devirtualized batch path (base kernel + one rotation pass) must
  // agree with color_of on shuffled, duplicate-carrying node vectors.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 6700417);
    const CompleteBinaryTree tree(10);
    const std::uint32_t modules =
        static_cast<std::uint32_t>(rng.between(3, 17));
    const ColorMapping base(make_optimal_color_mapping(tree, modules));
    const std::uint32_t subtree_level =
        static_cast<std::uint32_t>(rng.below(6));
    const MigratedMapping migrated(
        base, subtree_level,
        random_rotation(rng, subtree_level, base.num_modules()));

    std::vector<Node> nodes;
    for (int i = 0; i < 500; ++i) {
      nodes.push_back(node_at(rng.below(tree.size())));
    }
    std::vector<Color> batch(nodes.size());
    migrated.color_of_batch(nodes, batch);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      ASSERT_EQ(batch[i], migrated.color_of(nodes[i])) << "i=" << i;
    }
  }
}

TEST(MigratedMapping, ZeroRotationIsIdentity) {
  const CompleteBinaryTree tree(9);
  const ColorMapping base(tree, 5, 2);
  const MigratedMapping same(base, 4,
                             std::vector<Color>(std::size_t{1} << 4, 0));
  EXPECT_TRUE(same.is_identity());
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_EQ(same.color_of(node_at(id)), base.color_of(node_at(id)));
  }

  std::vector<Color> rot(std::size_t{1} << 4, 0);
  rot[7] = 1;
  const MigratedMapping moved(base, 4, std::move(rot));
  EXPECT_FALSE(moved.is_identity());
}

TEST(MigratedMapping, RotationPermutesLoadWithinASubtree) {
  // Within one migrated subtree the rotation is a cyclic relabeling of
  // colors, so the per-module load multiset over that subtree's nodes is
  // invariant — the planner moves heat, it never creates or destroys it.
  const CompleteBinaryTree tree(11);
  const ColorMapping base(make_optimal_color_mapping(tree, 13));
  const std::uint32_t modules = base.num_modules();
  const std::uint32_t subtree_level = 3;
  Rng rng(0x517EC7);
  const MigratedMapping migrated(
      base, subtree_level, random_rotation(rng, subtree_level, modules));

  for (std::uint32_t sid = 0; sid < (1u << subtree_level); ++sid) {
    std::vector<std::uint64_t> base_load(modules, 0);
    std::vector<std::uint64_t> migrated_load(modules, 0);
    for (std::uint64_t id = 0; id < tree.size(); ++id) {
      const Node n = node_at(id);
      if (n.level < subtree_level ||
          (n.index >> (n.level - subtree_level)) != sid) {
        continue;
      }
      base_load[base.color_of(n)] += 1;
      migrated_load[migrated.color_of(n)] += 1;
    }
    std::sort(base_load.begin(), base_load.end());
    std::sort(migrated_load.begin(), migrated_load.end());
    ASSERT_EQ(migrated_load, base_load) << "subtree " << sid;
  }
}

TEST(MigratedMapping, ComposesUnderDegradedMapping) {
  // Fault handling stacks OUTSIDE migration: DegradedMapping(Migrated)
  // must equal redirect[migrated color] node for node, scalar and batch.
  const CompleteBinaryTree tree(10);
  const ColorMapping base(make_optimal_color_mapping(tree, 11));
  Rng rng(0xDE6D);
  const MigratedMapping migrated(
      base, 4, random_rotation(rng, 4, base.num_modules()));
  ASSERT_GE(base.num_modules(), 4u);
  const DegradedMapping degraded(migrated, {1, 3});
  const std::vector<Color>& redirect = degraded.redirect_table();

  std::vector<Node> nodes;
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    nodes.push_back(node_at(id));
    ASSERT_EQ(degraded.color_of(node_at(id)),
              redirect[migrated.color_of(node_at(id))])
        << "node id=" << id;
  }
  std::vector<Color> batch(nodes.size());
  degraded.color_of_batch(nodes, batch);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ASSERT_EQ(batch[i], redirect[migrated.color_of(nodes[i])]) << i;
    ASSERT_NE(batch[i], 1u);
    ASSERT_NE(batch[i], 3u);
  }
}

TEST(MigratedMapping, LevelZeroRotatesEveryNodeUniformly) {
  // L = 0: one subtree (the whole tree), one rotation — the mapping
  // becomes a global color shift, i.e. a PermutedMapping with a cyclic
  // permutation.
  const CompleteBinaryTree tree(8);
  const std::uint32_t modules = 7;
  const ModuloMapping base(tree, modules);
  const MigratedMapping shifted(base, 0, {3});
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    ASSERT_EQ(shifted.color_of(node_at(id)),
              (base.color_of(node_at(id)) + 3) % modules);
  }
}

TEST(MigratedMapping, ReportsNameAndHistogramShape) {
  const CompleteBinaryTree tree(8);
  const ColorMapping base(tree, 5, 2);
  const MigratedMapping migrated(base, 2, {0, 1, 2, 3});
  EXPECT_EQ(migrated.name(), base.name() + "+migrated");
  EXPECT_EQ(migrated.num_modules(), base.num_modules());
  // TreeMapping holds the tree by value: compare shape, not address.
  EXPECT_EQ(migrated.tree().size(), base.tree().size());

  // Global module-load histogram: total node count is conserved.
  std::map<Color, std::uint64_t> hist;
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    hist[migrated.color_of(node_at(id))] += 1;
  }
  std::uint64_t total = 0;
  for (const auto& [c, count] : hist) {
    ASSERT_LT(c, migrated.num_modules());
    total += count;
  }
  EXPECT_EQ(total, tree.size());
}

TEST(MigratedMapping, ConstructorRejectsMisfitRotationTables) {
  // One entry per subtree at level L, each below the module count.
  // Construction only: color_of indexes the table by subtree.
  const CompleteBinaryTree tree(8);
  const ColorMapping base(tree, 5, 2);  // 6 modules
  EXPECT_NO_THROW(MigratedMapping(base, 2, {0, 1, 2, 5}));
  EXPECT_THROW(MigratedMapping(base, 2, {0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(MigratedMapping(base, 2, {0, 1, 2, 3, 4}),
               std::invalid_argument);
  EXPECT_THROW(MigratedMapping(base, 2, {0, 1, 2, 6}), std::invalid_argument);
  EXPECT_THROW(MigratedMapping(base, 64, {0}), std::invalid_argument);
}

}  // namespace
}  // namespace pmtree
