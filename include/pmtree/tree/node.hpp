// Node coordinates of a complete binary tree, following the paper's
// notation (Section 2.1):
//
//   * the root is at level 0;
//   * LEV_T(j) lists the 2^j nodes of level j left-to-right, indexed from 0;
//   * v_T(i, j) is node i of level j;
//   * ANC_T(i, j, k) = v(floor(i / 2^k), j - k) is the k-th ancestor.
//
// A Node is the pair (level, index). The equivalent linearization is the
// BFS id: bfs_id(v(i,j)) = 2^j - 1 + i, which enumerates the tree level by
// level starting from 0 at the root. All arithmetic is closed-form; there
// is no pointer structure anywhere in pmtree.
#pragma once

#include <cassert>
#include <compare>
#include <cstdint>
#include <string>

#include "pmtree/util/bits.hpp"

namespace pmtree {

struct Node {
  std::uint32_t level = 0;   ///< distance from the root (root: 0)
  std::uint64_t index = 0;   ///< left-to-right position within the level

  friend constexpr bool operator==(const Node&, const Node&) = default;
  friend constexpr auto operator<=>(const Node&, const Node&) = default;
};

/// v_T(i, j) — the paper's constructor notation, argument order (i, j).
[[nodiscard]] constexpr Node v(std::uint64_t i, std::uint32_t j) noexcept {
  assert(i < pow2(j));
  return Node{j, i};
}

/// Level-by-level (BFS) id of a node; the root has id 0.
[[nodiscard]] constexpr std::uint64_t bfs_id(Node n) noexcept {
  return pow2(n.level) - 1 + n.index;
}

/// Inverse of bfs_id.
[[nodiscard]] constexpr Node node_at(std::uint64_t id) noexcept {
  const std::uint32_t level = floor_log2(id + 1);
  return Node{level, id - (pow2(level) - 1)};
}

/// ANC_T(i, j, k): the k-th ancestor of v(i, j). Precondition: k <= level.
[[nodiscard]] constexpr Node ancestor(Node n, std::uint32_t k) noexcept {
  assert(k <= n.level);
  return Node{n.level - k, n.index >> k};
}

/// The parent of a non-root node.
[[nodiscard]] constexpr Node parent(Node n) noexcept { return ancestor(n, 1); }

/// Left child of a node.
[[nodiscard]] constexpr Node left_child(Node n) noexcept {
  return Node{n.level + 1, 2 * n.index};
}

/// Right child of a node.
[[nodiscard]] constexpr Node right_child(Node n) noexcept {
  return Node{n.level + 1, 2 * n.index + 1};
}

/// The sibling of a non-root node (index XOR 1). This realizes the paper's
/// "h + (-1)^{h mod 2}" sibling formula.
[[nodiscard]] constexpr Node sibling(Node n) noexcept {
  assert(n.level > 0);
  return Node{n.level, n.index ^ 1};
}

/// True iff `a` is an ancestor of `d` (strictly above it on the root path).
[[nodiscard]] constexpr bool is_ancestor(Node a, Node d) noexcept {
  return a.level < d.level && (d.index >> (d.level - a.level)) == a.index;
}

/// True iff `n` lies inside the complete subtree of `levels` levels rooted
/// at `root` (n may be root itself).
[[nodiscard]] constexpr bool in_subtree(Node n, Node root,
                                        std::uint32_t levels) noexcept {
  if (n.level < root.level || n.level >= root.level + levels) return false;
  return (n.index >> (n.level - root.level)) == root.index;
}

/// The node at BFS position `pos` (0 = `root`) of the subtree rooted at
/// `root`.
[[nodiscard]] constexpr Node subtree_node_at(Node root, std::uint64_t pos) noexcept {
  const std::uint32_t depth = floor_log2(pos + 1);
  const std::uint64_t offset = pos + 1 - pow2(depth);
  return Node{root.level + depth, (root.index << depth) + offset};
}

/// Node described as "v(i, j)" for diagnostics.
[[nodiscard]] inline std::string to_string(Node n) {
  return "v(" + std::to_string(n.index) + ", " + std::to_string(n.level) + ")";
}

}  // namespace pmtree
