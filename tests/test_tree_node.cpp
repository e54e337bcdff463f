#include "pmtree/tree/node.hpp"

#include <gtest/gtest.h>

#include "pmtree/tree/tree.hpp"

namespace pmtree {
namespace {

TEST(Node, BfsIdMatchesPaperFormula) {
  // v(i, j) has BFS id 2^j - 1 + i (the paper colors it 2^j + i - 1).
  EXPECT_EQ(bfs_id(v(0, 0)), 0u);
  EXPECT_EQ(bfs_id(v(0, 1)), 1u);
  EXPECT_EQ(bfs_id(v(1, 1)), 2u);
  EXPECT_EQ(bfs_id(v(0, 2)), 3u);
  EXPECT_EQ(bfs_id(v(3, 2)), 6u);
}

TEST(Node, BfsIdRoundTrip) {
  for (std::uint64_t id = 0; id < 1u << 12; ++id) {
    EXPECT_EQ(bfs_id(node_at(id)), id);
  }
}

TEST(Node, AncestorMatchesPaperFormula) {
  // ANC(i, j, k) = v(floor(i / 2^k), j - k).
  const Node n = v(13, 5);
  EXPECT_EQ(ancestor(n, 0), n);
  EXPECT_EQ(ancestor(n, 1), v(6, 4));
  EXPECT_EQ(ancestor(n, 2), v(3, 3));
  EXPECT_EQ(ancestor(n, 5), v(0, 0));
}

TEST(Node, ParentChildRelations) {
  const Node n = v(5, 4);
  EXPECT_EQ(parent(left_child(n)), n);
  EXPECT_EQ(parent(right_child(n)), n);
  EXPECT_EQ(left_child(n), v(10, 5));
  EXPECT_EQ(right_child(n), v(11, 5));
}

TEST(Node, SiblingIsIndexXorOne) {
  EXPECT_EQ(sibling(v(4, 3)), v(5, 3));
  EXPECT_EQ(sibling(v(5, 3)), v(4, 3));
  EXPECT_EQ(sibling(sibling(v(7, 3))), v(7, 3));
}

TEST(Node, IsAncestor) {
  EXPECT_TRUE(is_ancestor(v(0, 0), v(5, 3)));
  EXPECT_TRUE(is_ancestor(v(1, 1), v(5, 3)));   // 5 >> 2 == 1
  EXPECT_FALSE(is_ancestor(v(0, 1), v(5, 3)));  // 5 >> 2 == 1 != 0
  EXPECT_FALSE(is_ancestor(v(5, 3), v(5, 3)));  // strict
  EXPECT_FALSE(is_ancestor(v(5, 3), v(1, 1)));  // wrong direction
}

TEST(Node, InSubtree) {
  const Node root = v(2, 2);
  EXPECT_TRUE(in_subtree(root, root, 1));
  EXPECT_TRUE(in_subtree(v(4, 3), root, 2));
  EXPECT_TRUE(in_subtree(v(5, 3), root, 2));
  EXPECT_FALSE(in_subtree(v(6, 3), root, 2));
  EXPECT_FALSE(in_subtree(v(4, 3), root, 1));  // below the 1-level subtree
  EXPECT_FALSE(in_subtree(v(1, 1), root, 3));  // above the root
}

TEST(Tree, ShapeQueries) {
  const CompleteBinaryTree t(4);
  EXPECT_EQ(t.levels(), 4u);
  EXPECT_EQ(t.height(), 3u);
  EXPECT_EQ(t.size(), 15u);
  EXPECT_EQ(t.num_leaves(), 8u);
  EXPECT_EQ(t.level_width(2), 4u);
  EXPECT_TRUE(t.contains(v(7, 3)));
  EXPECT_FALSE(t.contains(Node{4, 0}));
  EXPECT_FALSE(t.contains(Node{2, 4}));
  EXPECT_TRUE(t.is_leaf(v(0, 3)));
  EXPECT_FALSE(t.is_leaf(v(0, 2)));
  EXPECT_EQ(t.root(), v(0, 0));
  EXPECT_EQ(t.first_leaf(), v(0, 3));
}

TEST(BfsPositionInSubtree, RoundTripsWithSubtreeNodeAt) {
  // A node's BFS position within the subtree rooted at `root` is the BFS
  // id of its coordinates relative to the root.
  const Node root = v(5, 3);
  for (std::uint64_t pos = 0; pos < 31; ++pos) {
    const Node n = subtree_node_at(root, pos);
    const std::uint32_t depth = n.level - root.level;
    EXPECT_EQ(bfs_id(Node{depth, n.index - (root.index << depth)}), pos);
    EXPECT_TRUE(in_subtree(n, root, 5));
  }
  EXPECT_EQ(subtree_node_at(v(3, 2), 0), v(3, 2));
  EXPECT_EQ(subtree_node_at(v(3, 2), 2), v(7, 3));
  EXPECT_EQ(subtree_node_at(v(3, 2), 6), v(15, 4));
}

TEST(Node, ToString) {
  EXPECT_EQ(to_string(v(3, 2)), "v(3, 2)");
}

}  // namespace
}  // namespace pmtree
