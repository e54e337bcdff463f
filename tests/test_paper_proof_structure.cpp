// Invariants internal to the paper's proofs, tested directly. These are
// stronger than the headline theorems: if one of them broke while the
// theorem still held by accident, the implementation would have drifted
// from the paper's construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/templates/enumerate.hpp"
#include "pmtree/util/bits.hpp"

namespace pmtree {
namespace {

TEST(ProofStructure, Theorem4PathHalvesAreRainbow) {
  // Theorem 4's proof splits P(M) into two segments of <= M/2 and argues
  // each is conflict-free because M/2 < N = 2^{m-1}+m-1. Check the
  // stronger per-segment claim: every ascending path of ceil(M/2) nodes
  // is rainbow under the M-optimal COLOR.
  const std::uint32_t M = 15;  // m = 4, N = 11
  const CompleteBinaryTree tree(17);
  const EagerColorMapping map(make_optimal_color_mapping(tree, M));
  EXPECT_EQ(evaluate_paths(map, (M + 1) / 2).max_conflicts, 0u);
  // In fact every path up to N is rainbow (Theorem 3).
  EXPECT_EQ(evaluate_paths(map, 11).max_conflicts, 0u);
}

TEST(ProofStructure, Lemma3SegmentDecomposition) {
  // Lemma 3 splits P(D) into ceil(D/M) segments of M, each costing <= 1
  // (Theorem 4). Verify the per-segment bound directly on every length-M
  // sub-path of sampled long paths.
  const std::uint32_t M = 7;  // N = 6
  const CompleteBinaryTree tree(18);
  const EagerColorMapping map(make_optimal_color_mapping(tree, M));
  EXPECT_LE(evaluate_paths(map, M).max_conflicts, 1u);
}

TEST(ProofStructure, Lemma1TopBottomPartition) {
  // Lemma 1's induction: for each anchor, the leaves of its size-K
  // subtree (the bottom part T_b) use colors disjoint from the TP's upper
  // part T_u. Check on a single block: for every anchor with a full
  // subtree, leaf colors do not intersect the root-path + internal
  // subtree colors.
  const std::uint32_t N = 6, k = 3;
  const std::uint64_t K = tree_size(k);
  const CompleteBinaryTree tree(N);
  const BasicColorMapping map(tree, N, k);
  for (std::uint32_t j = 0; j + k <= tree.levels(); ++j) {
    for (std::uint64_t i = 0; i < tree.level_width(j); ++i) {
      const Node anchor = v(i, j);
      std::set<Color> upper;
      // Root path through the anchor plus the internal (non-leaf) nodes
      // of the anchor's subtree.
      Node cur = anchor;
      while (true) {
        upper.insert(map.color_of(cur));
        if (cur.level == 0) break;
        cur = parent(cur);
      }
      const SubtreeInstance sub{anchor, K};
      for (const Node& n : sub.nodes()) {
        if (n.level < anchor.level + k - 1) upper.insert(map.color_of(n));
      }
      // Leaves of the subtree must avoid all of those colors.
      for (std::uint64_t off = 0; off < pow2(k - 1); ++off) {
        const Node leaf = v((anchor.index << (k - 1)) + off, j + k - 1);
        EXPECT_EQ(upper.count(map.color_of(leaf)), 0u)
            << "anchor " << to_string(anchor) << " leaf " << to_string(leaf);
      }
    }
  }
}

TEST(ProofStructure, Theorem3GammaSplit) {
  // Theorem 3's proof: a path crossing from parent block B1 into child
  // block B2 uses, inside B2's bottom part, only the *first* |P3| Gamma
  // colors, while its B1-part above the overlap carries the *last* |P1|
  // Gamma colors — so Gamma[t] never appears above block-relative level
  // k + t in the child block. Verify: the color Gamma(ib, jb)[t] (taken
  // from the parent path) colors no node of block (ib, jb) at relative
  // level < k + t.
  const std::uint32_t N = 5, k = 2, H = 11;
  const std::uint32_t stride = N - k;
  const CompleteBinaryTree tree(H);
  const ColorMapping map(tree, N, k);
  const auto colors = map.materialize();

  for (std::uint32_t jb = 1; jb * stride + k <= tree.levels(); ++jb) {
    const std::uint32_t root_level = jb * stride;
    for (std::uint64_t ib = 0; ib < std::min<std::uint64_t>(pow2(root_level), 16);
         ++ib) {
      // Gamma list: parent-block root down to this block root's parent.
      for (std::uint32_t t = 0; t < stride; ++t) {
        const Node gnode{(jb - 1) * stride + t, ib >> (stride - t)};
        const Color gamma_t = colors[bfs_id(gnode)];
        // Scan the block's rows above relative level k + t.
        for (std::uint32_t r = k; r < k + t && root_level + r < tree.levels();
             ++r) {
          for (std::uint64_t off = 0; off < pow2(r); ++off) {
            const Node n{root_level + r, (ib << r) + off};
            ASSERT_NE(colors[bfs_id(n)], gamma_t)
                << "Gamma[" << t << "] of block (" << ib << "," << jb
                << ") appeared at relative level " << r;
          }
        }
      }
    }
  }
}

TEST(ProofStructure, MicroLabelCfOnSublTrees) {
  // Section 6.1: MICRO-LABEL is conflict-free on S(2^l - 1) within each
  // block. Check every size-(2^l - 1) subtree wholly inside one block.
  for (const std::uint32_t M : {31u, 63u, 127u}) {
    const CompleteBinaryTree tree(12);
    const LabelTreeMapping map(tree, M);
    const std::uint32_t m = map.m();
    const std::uint32_t l = map.l();
    std::uint64_t checked = 0;
    for (std::uint64_t i = 0; i < count_subtrees(tree, tree_size(l)); ++i) {
      const SubtreeInstance s = subtree_at(tree, tree_size(l), i);
      // Inside one block iff the subtree's levels stay within one
      // generation's [jb*m, jb*m + m) band.
      const std::uint32_t jb = s.root.level / m;
      if (s.root.level + l > (jb + 1) * m) continue;
      ++checked;
      std::vector<Color> cs;
      for (const Node& n : s.nodes()) cs.push_back(map.color_of(n));
      std::sort(cs.begin(), cs.end());
      EXPECT_EQ(std::adjacent_find(cs.begin(), cs.end()), cs.end())
          << "M=" << M << " subtree at " << to_string(s.root);
    }
    EXPECT_GT(checked, 0u);
  }
}

TEST(ProofStructure, Lemma2UniqueRepeatIsTheGammaColor) {
  // Lemma 2's proof case analysis: for *sibling* node-blocks (h even —
  // their (k-1)-st ancestors are siblings, so both blocks' inherited
  // colors come from ONE size-K subtree, which Theorem 1 makes rainbow),
  // the only repeated color across the pair is the level's Gamma color,
  // carried by both last nodes. Cousin pairs (h odd) may share more
  // colors, but at positions >= K apart — which is why L(K) still costs
  // at most 1 (the theorem-level tests check that bound directly).
  const std::uint32_t N = 6, k = 3;
  const std::uint64_t K = tree_size(k);
  const CompleteBinaryTree tree(N);
  const BasicColorMapping map(tree, N, k);
  const std::uint64_t bsize = pow2(k - 1);
  for (std::uint32_t j = k; j < tree.levels(); ++j) {
    const Color gamma = static_cast<Color>(K + (j - k));
    for (std::uint64_t h = 0; h + 1 < tree.level_width(j) / bsize; h += 2) {
      std::set<Color> first_block, overlap;
      for (std::uint64_t t = 0; t < bsize; ++t) {
        first_block.insert(map.color_of(v(h * bsize + t, j)));
      }
      for (std::uint64_t t = 0; t < bsize; ++t) {
        const Color c = map.color_of(v((h + 1) * bsize + t, j));
        if (first_block.count(c) != 0) overlap.insert(c);
      }
      ASSERT_EQ(overlap.size(), 1u) << "level " << j << " blocks " << h;
      EXPECT_EQ(*overlap.begin(), gamma);
    }
  }
}

TEST(ProofStructure, LevelWindowsNeverTripleAnyColor) {
  // The statement Lemma 2 actually needs: within ANY window of K
  // consecutive same-level nodes, no color appears three times (cost <= 1
  // means max multiplicity <= 2; several colors may each repeat once —
  // e.g. a cousin-block repeat plus the Gamma pair in one window).
  const std::uint32_t N = 6, k = 3;
  const std::uint64_t K = tree_size(k);
  const CompleteBinaryTree tree(N);
  const BasicColorMapping map(tree, N, k);
  for (std::uint32_t j = k; j < tree.levels(); ++j) {
    if (tree.level_width(j) < K) continue;
    for (std::uint64_t i = 0; i + K <= tree.level_width(j); ++i) {
      std::vector<std::uint32_t> histogram(map.num_modules(), 0);
      for (std::uint64_t t = 0; t < K; ++t) {
        ASSERT_LE(++histogram[map.color_of(v(i + t, j))], 2u)
            << "level " << j << " window at " << i;
      }
    }
  }
}

}  // namespace
}  // namespace pmtree
