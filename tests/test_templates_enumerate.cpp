#include "pmtree/templates/enumerate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "pmtree/templates/sampler.hpp"
#include "pmtree/util/bits.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree {
namespace {

/// Every node of `tree` in BFS order, written out level by level here so
/// the family scans below are checked against the tree itself rather than
/// against the library's own counts.
std::vector<Node> every_node(const CompleteBinaryTree& tree) {
  std::vector<Node> out;
  for (std::uint32_t j = 0; j < tree.levels(); ++j) {
    for (std::uint64_t i = 0; i < (std::uint64_t{1} << j); ++i) {
      out.push_back(Node{j, i});
    }
  }
  return out;
}

TEST(Enumerate, SubtreeCountMatchesClosedForm) {
  // subtree_at over [0, count) is exactly the brute-force family, in BFS
  // order of the roots: every node whose k-level subtree fits.
  for (std::uint32_t levels = 1; levels <= 8; ++levels) {
    const CompleteBinaryTree tree(levels);
    for (std::uint32_t k = 1; k <= levels + 1; ++k) {
      const std::uint64_t K = tree_size(k);
      std::vector<Node> want;
      for (const Node n : every_node(tree)) {
        if (n.level + k <= levels) want.push_back(n);
      }
      std::vector<Node> got;
      for (std::uint64_t i = 0; i < count_subtrees(tree, K); ++i) {
        const SubtreeInstance s = subtree_at(tree, K, i);
        EXPECT_TRUE(s.fits(tree));
        EXPECT_EQ(s.size, K);
        got.push_back(s.root);
      }
      EXPECT_EQ(got, want) << "levels=" << levels << " k=" << k;
    }
  }
}

TEST(Enumerate, LevelRunCountMatchesClosedForm) {
  // level_run_at over [0, count) is every node that starts a K-run inside
  // its level, in BFS order of the first node.
  for (std::uint32_t levels = 1; levels <= 8; ++levels) {
    const CompleteBinaryTree tree(levels);
    for (std::uint64_t K = 1; K <= tree.num_leaves() + 1; K += 3) {
      std::vector<Node> want;
      for (const Node n : every_node(tree)) {
        if (n.index + K <= (std::uint64_t{1} << n.level)) want.push_back(n);
      }
      std::vector<Node> got;
      for (std::uint64_t i = 0; i < count_level_runs(tree, K); ++i) {
        const LevelRunInstance l = level_run_at(tree, K, i);
        EXPECT_TRUE(l.fits(tree));
        EXPECT_EQ(l.size, K);
        got.push_back(l.first);
      }
      EXPECT_EQ(got, want) << "levels=" << levels << " K=" << K;
    }
  }
}

TEST(Enumerate, PathCountMatchesClosedForm) {
  // path_at over [0, count) is every node with K - 1 ancestors to climb,
  // in BFS order of the deepest node.
  for (std::uint32_t levels = 1; levels <= 8; ++levels) {
    const CompleteBinaryTree tree(levels);
    for (std::uint64_t K = 1; K <= levels + 1; ++K) {
      std::vector<Node> want;
      for (const Node n : every_node(tree)) {
        if (n.level + 1 >= K) want.push_back(n);
      }
      std::vector<Node> got;
      for (std::uint64_t i = 0; i < count_paths(tree, K); ++i) {
        const PathInstance p = path_at(tree, K, i);
        EXPECT_TRUE(p.fits(tree));
        EXPECT_EQ(p.size, K);
        got.push_back(p.start);
      }
      EXPECT_EQ(got, want) << "levels=" << levels << " K=" << K;
    }
  }
}

TEST(Enumerate, InstancesAreDistinct) {
  // No two indices of a family name the same node set.
  const CompleteBinaryTree tree(6);
  std::set<std::vector<Node>> subtrees, runs, paths, tps;
  for (std::uint64_t i = 0; i < count_subtrees(tree, 7); ++i) {
    EXPECT_TRUE(subtrees.insert(subtree_at(tree, 7, i).nodes()).second) << i;
  }
  for (std::uint64_t i = 0; i < count_level_runs(tree, 5); ++i) {
    EXPECT_TRUE(runs.insert(level_run_at(tree, 5, i).nodes()).second) << i;
  }
  for (std::uint64_t i = 0; i < count_paths(tree, 3); ++i) {
    EXPECT_TRUE(paths.insert(path_at(tree, 3, i).nodes()).second) << i;
  }
  for (std::uint64_t i = 0; i < count_tp(tree); ++i) {
    EXPECT_TRUE(tps.insert(tp_at(tree, 7, i).nodes()).second) << i;
  }
}

TEST(Enumerate, TpInstancesHaveExpectedShape) {
  // TP_K(i, j): size-K subtree at the anchor v(i, j-1) (truncated at the
  // boundary) plus the (j-1)-node path from the anchor's parent to the
  // root. Anchors run in BFS order, so TP_K(., j) is the index range
  // [2^{j-1} - 1, 2^j - 1).
  const CompleteBinaryTree tree(6);
  const std::uint64_t K = 7;  // k = 3
  ASSERT_EQ(count_tp(tree), tree.size());
  std::vector<std::uint64_t> seen(tree.levels() + 1, 0);
  for (std::uint64_t idx = 0; idx < count_tp(tree); ++idx) {
    const CompositeInstance tp = tp_at(tree, K, idx);
    const Node anchor = node_at(idx);
    const std::uint32_t j = anchor.level + 1;
    seen[j] += 1;
    EXPECT_TRUE(tp.fits(tree));
    EXPECT_TRUE(tp.is_disjoint());
    const std::uint32_t sub_levels =
        std::min<std::uint32_t>(3, tree.levels() - anchor.level);
    EXPECT_EQ(tp.size(), tree_size(sub_levels) + anchor.level);
    ASSERT_NE(tp.parts()[0].get_if<SubtreeInstance>(), nullptr);
    EXPECT_EQ(tp.parts()[0].get_if<SubtreeInstance>()->root, anchor);
  }
  for (std::uint32_t j = 1; j <= tree.levels(); ++j) {
    EXPECT_EQ(seen[j], pow2(j - 1)) << "j=" << j;
  }
}

TEST(Enumerate, AccessorsRejectMalformedArguments) {
  const CompleteBinaryTree tree(5);
  // Malformed K: 6 is not a tree size; runs and paths need K >= 1.
  EXPECT_THROW((void)subtree_at(tree, 6, 0), std::invalid_argument);
  EXPECT_THROW((void)tp_at(tree, 6, 0), std::invalid_argument);
  EXPECT_THROW((void)level_run_at(tree, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)path_at(tree, 0, 0), std::invalid_argument);
  // The counts hold the same K rules, and the subtree sampler draws
  // through them.
  EXPECT_THROW((void)count_subtrees(tree, 6), std::invalid_argument);
  EXPECT_THROW((void)count_level_runs(tree, 0), std::invalid_argument);
  EXPECT_THROW((void)count_paths(tree, 0), std::invalid_argument);
  Rng rng(1);
  EXPECT_THROW((void)sample_subtree(tree, 6, rng), std::invalid_argument);
  // idx one past the family is the first invalid index.
  EXPECT_THROW((void)subtree_at(tree, 7, count_subtrees(tree, 7)),
               std::out_of_range);
  EXPECT_THROW((void)level_run_at(tree, 3, count_level_runs(tree, 3)),
               std::out_of_range);
  EXPECT_THROW((void)path_at(tree, 4, count_paths(tree, 4)),
               std::out_of_range);
  EXPECT_THROW((void)tp_at(tree, 7, count_tp(tree)), std::out_of_range);
  // A family too big for the tree is empty, not an error class of its
  // own: every index is out of range.
  EXPECT_EQ(count_subtrees(tree, tree_size(6)), 0u);
  EXPECT_THROW((void)subtree_at(tree, tree_size(6), 0), std::out_of_range);
  EXPECT_THROW((void)level_run_at(tree, pow2(tree.levels() - 1) + 1, 0),
               std::out_of_range);
  EXPECT_THROW((void)path_at(tree, tree.levels() + 1, 0), std::out_of_range);
}

TEST(Enumerate, CountsOnKnownSmallTree) {
  const CompleteBinaryTree tree(4);  // 15 nodes
  EXPECT_EQ(count_subtrees(tree, 7), 3u);    // roots in levels 0..1: 1+2
  EXPECT_EQ(count_paths(tree, 4), 8u);       // one per leaf
  EXPECT_EQ(count_paths(tree, 1), 15u);      // one per node
  EXPECT_EQ(count_level_runs(tree, 4), 6u);  // level 2: 1, level 3: 5
}

TEST(Enumerate, SamplersDrawOneIndexOfTheFamily) {
  // Each elementary sampler is `*_at(tree, K, rng.below(count_*))` on the
  // caller's stream: a copy of the Rng replays every draw through the
  // accessor. Past the family's end the sampler returns nullopt and leaves
  // the stream alone.
  const CompleteBinaryTree tree(9);
  constexpr int kDraws = 1000;
  for (std::uint32_t k = 1; k <= tree.levels(); ++k) {
    const std::uint64_t K = tree_size(k);
    Rng rng(1000 + k);
    Rng copy = rng;
    for (int d = 0; d < kDraws; ++d) {
      const auto got = sample_subtree(tree, K, rng);
      const SubtreeInstance want =
          subtree_at(tree, K, copy.below(count_subtrees(tree, K)));
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(got->root, want.root) << "k=" << k << " draw " << d;
      ASSERT_EQ(got->size, want.size);
    }
  }
  for (std::uint64_t K = 1; K <= tree.num_leaves(); ++K) {
    Rng rng(2000 + K);
    Rng copy = rng;
    for (int d = 0; d < kDraws; ++d) {
      const auto got = sample_level_run(tree, K, rng);
      const LevelRunInstance want =
          level_run_at(tree, K, copy.below(count_level_runs(tree, K)));
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(got->first, want.first) << "K=" << K << " draw " << d;
      ASSERT_EQ(got->size, want.size);
    }
  }
  for (std::uint64_t K = 1; K <= tree.levels(); ++K) {
    Rng rng(3000 + K);
    Rng copy = rng;
    for (int d = 0; d < kDraws; ++d) {
      const auto got = sample_path(tree, K, rng);
      const PathInstance want =
          path_at(tree, K, copy.below(count_paths(tree, K)));
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(got->start, want.start) << "K=" << K << " draw " << d;
      ASSERT_EQ(got->size, want.size);
    }
  }

  Rng rng(4000);
  Rng copy = rng;
  EXPECT_FALSE(sample_subtree(tree, tree_size(tree.levels() + 1), rng));
  EXPECT_FALSE(sample_level_run(tree, tree.num_leaves() + 1, rng));
  EXPECT_FALSE(sample_level_run(tree, 0, rng));
  EXPECT_FALSE(sample_path(tree, tree.levels() + 1, rng));
  EXPECT_FALSE(sample_path(tree, 0, rng));
  EXPECT_EQ(rng(), copy());
}

}  // namespace
}  // namespace pmtree
