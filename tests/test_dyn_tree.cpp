// DynamicTree: the live bitmap under the envelope (DESIGN.md §16).
// Covers every DynStatus verdict of its two mutators and a randomized
// churn differential against a straightforward reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree::dyn {
namespace {

TEST(DynamicTree, StartsRootOnly) {
  DynamicTree t(6);
  EXPECT_EQ(t.max_levels(), 6u);
  EXPECT_EQ(t.levels(), 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.is_live(Node{0, 0}));
  EXPECT_TRUE(t.is_leaf(Node{0, 0}));
  EXPECT_FALSE(t.is_live(Node{1, 0}));
  EXPECT_TRUE(t.validate());
}

TEST(DynamicTree, RejectsEnvelopeOutsideOneToTwentySix) {
  // Checked in every build type, before any member is built.
  EXPECT_THROW(DynamicTree(0), std::invalid_argument);
  EXPECT_THROW(DynamicTree(27), std::invalid_argument);
  EXPECT_THROW(DynamicTree(64), std::invalid_argument);
  EXPECT_NO_THROW(DynamicTree(1));
  const DynamicTree deepest(26);
  EXPECT_EQ(deepest.max_levels(), 26u);
  EXPECT_TRUE(deepest.validate());
}

TEST(DynamicTree, InsertValidatesEveryInvariant) {
  DynamicTree t(3);
  // Out of envelope: level 3 of a 3-level envelope, and a bad index.
  EXPECT_EQ(t.insert_node(Node{3, 0}), DynStatus::kNotInEnvelope);
  EXPECT_EQ(t.insert_node(Node{1, 2}), DynStatus::kNotInEnvelope);
  // The root is already live.
  EXPECT_EQ(t.insert_node(Node{0, 0}), DynStatus::kOccupied);
  // Level-2 node under a dead parent.
  EXPECT_EQ(t.insert_node(Node{2, 0}), DynStatus::kParentMissing);
  // Legal insert, then its child becomes legal.
  EXPECT_EQ(t.insert_node(Node{1, 0}), DynStatus::kOk);
  EXPECT_EQ(t.insert_node(Node{1, 0}), DynStatus::kOccupied);
  EXPECT_EQ(t.insert_node(Node{2, 1}), DynStatus::kOk);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.levels(), 3u);
  EXPECT_TRUE(t.validate());
}

TEST(DynamicTree, RemoveLeafValidatesEveryInvariant) {
  DynamicTree t(3);
  ASSERT_EQ(t.insert_node(Node{1, 0}), DynStatus::kOk);
  ASSERT_EQ(t.insert_node(Node{2, 0}), DynStatus::kOk);
  EXPECT_EQ(t.remove_leaf(Node{1, 1}), DynStatus::kNotLive);
  EXPECT_EQ(t.remove_leaf(Node{0, 0}), DynStatus::kIsRoot);
  EXPECT_EQ(t.remove_leaf(Node{1, 0}), DynStatus::kHasChildren);
  EXPECT_EQ(t.remove_leaf(Node{2, 0}), DynStatus::kOk);
  EXPECT_EQ(t.remove_leaf(Node{1, 0}), DynStatus::kOk);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.levels(), 1u);
  EXPECT_TRUE(t.validate());
}

TEST(DynamicTree, VersionBumpsOnlyOnSuccess) {
  DynamicTree t(3);
  const std::uint64_t v0 = t.version();
  EXPECT_EQ(t.insert_node(Node{2, 0}), DynStatus::kParentMissing);
  EXPECT_EQ(t.version(), v0);
  ASSERT_EQ(t.insert_node(Node{1, 0}), DynStatus::kOk);
  EXPECT_GT(t.version(), v0);
}

TEST(DynamicTree, LiveNodesMatchesForEachLive) {
  DynamicTree t(4);
  for (std::uint64_t id = 1; id < 7; ++id) {
    ASSERT_EQ(t.insert_node(node_at(id)), DynStatus::kOk);
  }
  ASSERT_EQ(t.remove_leaf(Node{2, 2}), DynStatus::kOk);
  std::vector<Node> visited;
  t.for_each_live([&](Node n) { visited.push_back(n); });
  EXPECT_EQ(visited, t.live_nodes());
  EXPECT_EQ(visited.size(), t.size());
  // Level-by-level, left-to-right order.
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
}

// Randomized churn differential: the allocator against a plain set-based
// reference model enforcing the same invariants, with validate() run
// after every mutation.
TEST(DynamicTree, ChurnMatchesReferenceModel) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(0xD15C0000 + seed);
    DynamicTree t(7);
    std::set<Node> ref{Node{0, 0}};
    const auto ref_has = [&](Node n) { return ref.count(n) != 0; };
    for (int step = 0; step < 2000; ++step) {
      const std::uint32_t level =
          static_cast<std::uint32_t>(rng.below(t.max_levels()));
      const Node target{level, rng.below(pow2(level))};
      if (rng.chance(3, 5)) {
        const DynStatus got = t.insert_node(target);
        DynStatus want = DynStatus::kOk;
        if (ref_has(target)) {
          want = DynStatus::kOccupied;
        } else if (target.level > 0 && !ref_has(parent(target))) {
          want = DynStatus::kParentMissing;
        }
        EXPECT_EQ(got, want) << "seed " << seed << " step " << step;
        if (want == DynStatus::kOk) ref.insert(target);
      } else {
        const DynStatus got = t.remove_leaf(target);
        DynStatus want = DynStatus::kOk;
        const bool child_live =
            target.level + 1 < t.max_levels() &&
            (ref_has(left_child(target)) || ref_has(right_child(target)));
        if (!ref_has(target)) {
          want = DynStatus::kNotLive;
        } else if (target.level == 0) {
          want = DynStatus::kIsRoot;
        } else if (child_live) {
          want = DynStatus::kHasChildren;
        }
        EXPECT_EQ(got, want) << "seed " << seed << " step " << step;
        if (want == DynStatus::kOk) ref.erase(target);
      }
      ASSERT_EQ(t.size(), ref.size());
    }
    ASSERT_TRUE(t.validate());
    const std::vector<Node> live = t.live_nodes();
    EXPECT_TRUE(std::equal(live.begin(), live.end(), ref.begin(), ref.end()));
  }
}

}  // namespace
}  // namespace pmtree::dyn
