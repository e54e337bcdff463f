// ParallelHeap: a binary min-heap laid out on a complete binary tree,
// instrumented to expose every operation's memory access as a P-template
// instance (Section 1.1 of the paper: "operations like insertion of a new
// key and decrease-key are traditionally implemented by accessing all the
// nodes of a leaf-to-root path of the tree ... the deletion of the minimum
// can also be implemented by accessing all the nodes of a suitable
// leaf-to-root path").
//
// The heap is fully functional (insert / decrease-key / extract-min with
// the usual invariants); each operation returns the ascending path it
// touched so callers can price it with analysis/cost.hpp rounds() and
// observe the conflict behaviour of the underlying tree mapping.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pmtree/tree/node.hpp"
#include "pmtree/tree/tree.hpp"

namespace pmtree {

class ParallelHeap {
 public:
  using Key = std::int64_t;

  /// A heap with capacity 2^levels - 1 keys.
  explicit ParallelHeap(std::uint32_t levels);

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return keys_.size(); }
  [[nodiscard]] const CompleteBinaryTree& tree() const noexcept { return tree_; }

  /// Builds a heap of the given capacity holding `keys` (Floyd's
  /// bottom-up heapify, O(n)). Precondition: keys.size() <= capacity.
  [[nodiscard]] static ParallelHeap from_keys(std::uint32_t levels,
                                              const std::vector<Key>& keys);

  /// Smallest key, if any.
  [[nodiscard]] std::optional<Key> min() const noexcept;

  /// Inserts `key`; returns the ascending path (new slot up to the root)
  /// accessed by the parallel algorithm. Precondition: size() < capacity().
  std::vector<Node> insert(Key key);

  /// Decreases the key stored at heap slot `pos` (BFS position, < size())
  /// to `new_key` (must not exceed the current key); returns the accessed
  /// ascending path.
  std::vector<Node> decrease_key(std::uint64_t pos, Key new_key);

  /// Removes the minimum into `*out`; returns the accessed leaf-to-root
  /// path (the path of the last heap slot, along which the replacement
  /// key settles). Precondition: size() > 0.
  std::vector<Node> extract_min(Key* out);

  /// Key at heap slot `pos` (BFS position). Precondition: pos < size().
  [[nodiscard]] Key key_at(std::uint64_t pos) const noexcept {
    return keys_[pos];
  }

  /// True iff every parent <= child — the heap invariant (test hook).
  [[nodiscard]] bool is_valid_heap() const noexcept;

 private:
  /// Root path of the slot as an ascending P-template node set.
  [[nodiscard]] std::vector<Node> root_path(std::uint64_t pos) const;

  void sift_up(std::uint64_t pos);
  void sift_down(std::uint64_t pos);

  CompleteBinaryTree tree_;
  std::vector<Key> keys_;  ///< slot i <-> node bfs_id i; first size_ used
  std::uint64_t size_ = 0;
};

}  // namespace pmtree
