#include "pmtree/templates/enumerate.hpp"

#include <algorithm>
#include <stdexcept>

#include "pmtree/util/bits.hpp"

namespace pmtree {

namespace {

void require_tree_size(std::uint64_t K) {
  if (!is_tree_size(K)) {
    throw std::invalid_argument("subtree template size K must be 2^k - 1");
  }
}

void require_positive(std::uint64_t K) {
  if (K == 0) throw std::invalid_argument("template size K must be >= 1");
}

void require_index(std::uint64_t idx, std::uint64_t count) {
  if (idx >= count) {
    throw std::out_of_range("template instance index past the family");
  }
}

}  // namespace

std::uint64_t count_subtrees(const CompleteBinaryTree& tree, std::uint64_t K) {
  require_tree_size(K);
  const std::uint32_t k = tree_levels(K);
  if (k > tree.levels()) return 0;
  // sum_{j=0}^{levels-k} 2^j = 2^{levels-k+1} - 1
  return pow2(tree.levels() - k + 1) - 1;
}

std::uint64_t count_level_runs(const CompleteBinaryTree& tree, std::uint64_t K) {
  require_positive(K);
  std::uint64_t total = 0;
  for (std::uint32_t j = 0; j < tree.levels(); ++j) {
    if (pow2(j) >= K) total += pow2(j) - K + 1;
  }
  return total;
}

std::uint64_t count_paths(const CompleteBinaryTree& tree, std::uint64_t K) {
  require_positive(K);
  // One instance per deepest node at level >= K-1:
  // sum_{j=K-1}^{levels-1} 2^j = 2^levels - 2^{K-1}
  if (K > tree.levels()) return 0;
  return pow2(tree.levels()) - pow2(static_cast<std::uint32_t>(K) - 1);
}

std::uint64_t count_tp(const CompleteBinaryTree& tree) {
  // One instance per anchor v(i, j-1), j = 1..levels.
  return tree.size();
}

SubtreeInstance subtree_at(const CompleteBinaryTree& tree, std::uint64_t K,
                           std::uint64_t idx) {
  require_index(idx, count_subtrees(tree, K));
  return SubtreeInstance{node_at(idx), K};
}

LevelRunInstance level_run_at(const CompleteBinaryTree& tree, std::uint64_t K,
                              std::uint64_t idx) {
  require_index(idx, count_level_runs(tree, K));
  // idx < count, so the walk ends on a level of the tree.
  for (std::uint32_t j = 0;; ++j) {
    if (pow2(j) < K) continue;
    const std::uint64_t runs = pow2(j) - K + 1;
    if (idx < runs) return LevelRunInstance{v(idx, j), K};
    idx -= runs;
  }
}

PathInstance path_at(const CompleteBinaryTree& tree, std::uint64_t K,
                     std::uint64_t idx) {
  require_index(idx, count_paths(tree, K));
  return PathInstance{
      node_at(idx + pow2(static_cast<std::uint32_t>(K) - 1) - 1), K};
}

CompositeInstance tp_at(const CompleteBinaryTree& tree, std::uint64_t K,
                        std::uint64_t idx) {
  require_tree_size(K);
  require_index(idx, count_tp(tree));
  const Node anchor = node_at(idx);
  // The subtree part is truncated at the tree boundary (the paper: "if
  // j > N - k, the subtree rooted at v(i, j) has size smaller than K").
  const std::uint32_t sub_levels =
      std::min(tree_levels(K), tree.levels() - anchor.level);
  CompositeInstance tp;
  tp.add(SubtreeInstance{anchor, tree_size(sub_levels)});
  // The path part runs from the anchor's parent up to the root (j-1
  // nodes), disjoint from the subtree part.
  if (anchor.level >= 1) {
    tp.add(PathInstance{parent(anchor), anchor.level});
  }
  return tp;
}

}  // namespace pmtree
