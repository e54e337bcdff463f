// The binary-tree template families of Section 2.1, each defined once as
// a closed-form count plus an indexed accessor:
//
//   S^T(K) — all complete size-K subtrees of T;
//   L^T(K) — all runs of K consecutive nodes within one level;
//   P^T(K) — all ascending paths of K nodes;
//   TP(K)  — Lemma 1's TP_K(i, j) instances for every j.
//
// `*_at(tree, K, idx)` returns instance `idx` of the family, for idx in
// [0, count_*). Every exhaustive scan (the parallel evaluate_* loops, the
// level profiles, the theorem verdicts) walks that range, and every
// elementary sampler draws one index of it, so a family's order and
// membership are written here and nowhere else.
//
// The contracts hold in every build type: a malformed K (not 2^k - 1 for
// S and TP, 0 for L and P) throws std::invalid_argument, and an index at
// or past the family's count throws std::out_of_range.
#pragma once

#include <cstdint>

#include "pmtree/templates/instance.hpp"
#include "pmtree/tree/tree.hpp"

namespace pmtree {

/// |S^T(K)|: number of size-K subtree instances (0 if K has more levels
/// than the tree). Throws std::invalid_argument unless K = 2^k - 1.
[[nodiscard]] std::uint64_t count_subtrees(const CompleteBinaryTree& tree,
                                           std::uint64_t K);

/// |L^T(K)|: number of K-node level runs (0 if K exceeds the widest
/// level). Throws std::invalid_argument for K == 0.
[[nodiscard]] std::uint64_t count_level_runs(const CompleteBinaryTree& tree,
                                             std::uint64_t K);

/// |P^T(K)|: number of K-node ascending paths (0 if K exceeds the tree's
/// level count). Throws std::invalid_argument for K == 0.
[[nodiscard]] std::uint64_t count_paths(const CompleteBinaryTree& tree,
                                        std::uint64_t K);

/// Total TP_K(i, j) instances over all j = 1..levels: one per anchor node,
/// i.e. tree.size().
[[nodiscard]] std::uint64_t count_tp(const CompleteBinaryTree& tree);

/// Instance `idx` of S^T(K). Roots run in BFS order (level by level,
/// left to right), so the root is node_at(idx).
[[nodiscard]] SubtreeInstance subtree_at(const CompleteBinaryTree& tree,
                                         std::uint64_t K, std::uint64_t idx);

/// Instance `idx` of L^T(K): levels top-down, and within a level the
/// runs by first node, left to right.
[[nodiscard]] LevelRunInstance level_run_at(const CompleteBinaryTree& tree,
                                            std::uint64_t K, std::uint64_t idx);

/// Instance `idx` of P^T(K). Deepest nodes run in BFS order from level
/// K - 1, so the deepest node is node_at(2^{K-1} - 1 + idx).
[[nodiscard]] PathInstance path_at(const CompleteBinaryTree& tree,
                                   std::uint64_t K, std::uint64_t idx);

/// Instance `idx` of the TP family: TP_K(i, j) is the size-K subtree
/// rooted at the anchor v(i, j-1), truncated at the tree boundary, plus
/// the (j-1)-node path from the anchor's parent up to the root. Anchors
/// run in BFS order — (j ascending, i ascending) — so the anchor is
/// node_at(idx), and TP_K(., j) is the index range [2^{j-1} - 1, 2^j - 1).
[[nodiscard]] CompositeInstance tp_at(const CompleteBinaryTree& tree,
                                      std::uint64_t K, std::uint64_t idx);

}  // namespace pmtree
