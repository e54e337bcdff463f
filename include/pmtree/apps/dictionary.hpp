// Dictionary: an ordered static dictionary on a complete binary search
// tree, the paper's other Section 1.1 motivation ("heaps and dictionaries
// are among the two most popular data structures implemented with trees").
//
// Keys are stored in *every* node in symmetric (in-order) order, so BST
// navigation works by comparison. A parallel search speculatively fetches
// the whole root-to-leaf path in one parallel access — the standard PRAM
// technique the P-template models: with a conflict-free mapping of path
// length H, a lookup costs a single memory round regardless of where the
// key sits.
//
// Operations return the accessed node set so callers can price them with
// analysis/cost.hpp rounds() or feed them to the cycle engine.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pmtree/tree/node.hpp"
#include "pmtree/tree/tree.hpp"

namespace pmtree {

class Dictionary {
 public:
  using Key = std::int64_t;

  /// Builds the dictionary over exactly 2^levels - 1 sorted distinct keys.
  /// Precondition: keys sorted ascending, size is 2^t - 1 for some t >= 1.
  explicit Dictionary(const std::vector<Key>& sorted_keys);

  struct SearchResult {
    bool found = false;
    Node node;                   ///< where the key lives (valid iff found)
    std::vector<Node> accessed;  ///< the speculative root-to-leaf path
  };

  /// Parallel search: accesses one full root-to-leaf path (a P-template
  /// instance of size levels()).
  [[nodiscard]] SearchResult search(Key key) const;

  /// Key stored at a node.
  [[nodiscard]] Key key_at(Node n) const noexcept { return keys_[bfs_id(n)]; }

  /// Smallest key >= `key`, if any (walks the same speculative path).
  [[nodiscard]] std::optional<Key> successor(Key key) const;

  [[nodiscard]] const CompleteBinaryTree& tree() const noexcept { return tree_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return keys_.size(); }

  /// In-order traversal position of a node (0-based) — the dictionary rank
  /// of its key. Exposed because the closed form (no walking) is one of
  /// the pleasant facts about complete BSTs this module relies on.
  [[nodiscard]] static std::uint64_t inorder_rank(Node n,
                                                  std::uint32_t levels) noexcept;

 private:
  CompleteBinaryTree tree_;
  std::vector<Key> keys_;  ///< indexed by bfs_id, in-order key layout
};

}  // namespace pmtree
