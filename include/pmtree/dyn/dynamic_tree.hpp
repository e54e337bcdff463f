// DynamicTree: a mutable tree living inside a complete-binary-tree
// envelope (DESIGN.md §16).
//
// The rest of pmtree studies a *static* complete tree: mappings color its
// coordinates once, templates enumerate its node sets, the engine replays
// accesses against a fixed shape. DynamicTree opens the read-write
// scenario space without breaking any of that machinery, by keeping the
// paper's coordinate system as the source of truth:
//
//   * node identity IS the (level, index) coordinate — stable for the
//     node's whole lifetime, so templates, CSR layouts and colorings
//     built against coordinates keep working as the tree mutates;
//   * the live set is a per-level bitmap over the envelope (a
//     CompleteBinaryTree of max_levels), maintained under the single
//     structural invariant "every live non-root node has a live parent"
//     — the live set is always a connected top subtree of the envelope.
//
// The serve layer's apply barrier (serve/mutation.hpp) is the one
// mutator: it inserts single nodes under live parents and removes live
// leaves, one request at a time.
//
// Every mutation validates its preconditions and returns a DynStatus
// instead of silently accepting an out-of-range parent or an occupied
// coordinate — the serve layer records these verdicts per mutation and
// the PALM batch barrier relies on them to resolve write-write conflicts
// deterministically.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "pmtree/tree/node.hpp"
#include "pmtree/tree/tree.hpp"

namespace pmtree::dyn {

/// Verdict of one DynamicTree mutation. kOk is the only success value;
/// everything else names the violated invariant.
enum class DynStatus : std::uint8_t {
  kOk,             ///< mutation applied
  kNotInEnvelope,  ///< coordinate outside the max_levels envelope
  kParentMissing,  ///< insert target's parent is not live
  kOccupied,       ///< insert target is already live
  kNotLive,        ///< erase target is not live
  kHasChildren,    ///< remove_leaf target still has a live child
  kIsRoot,         ///< the root cannot be removed
  kDuplicate,      ///< deduped: an identical mutation precedes it in batch
};

[[nodiscard]] constexpr const char* to_string(DynStatus s) noexcept {
  switch (s) {
    case DynStatus::kOk: return "ok";
    case DynStatus::kNotInEnvelope: return "not-in-envelope";
    case DynStatus::kParentMissing: return "parent-missing";
    case DynStatus::kOccupied: return "occupied";
    case DynStatus::kNotLive: return "not-live";
    case DynStatus::kHasChildren: return "has-children";
    case DynStatus::kIsRoot: return "is-root";
    case DynStatus::kDuplicate: return "duplicate";
  }
  return "?";
}

class DynamicTree {
 public:
  /// An initially root-only tree inside a max_levels envelope
  /// (1 <= max_levels <= 26; a level's liveness bitmap spans its full
  /// envelope width). Throws std::invalid_argument for any other value.
  explicit DynamicTree(std::uint32_t max_levels);

  [[nodiscard]] const CompleteBinaryTree& envelope() const noexcept {
    return envelope_;
  }
  [[nodiscard]] std::uint32_t max_levels() const noexcept {
    return envelope_.levels();
  }
  /// Levels of the current live set: deepest live level + 1.
  [[nodiscard]] std::uint32_t levels() const noexcept { return deepest_ + 1; }
  /// Number of live nodes (the root is always live).
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  /// Bumped by every successful mutation — cheap change detection for
  /// layers that cache shape-derived state.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  [[nodiscard]] bool is_live(Node n) const noexcept {
    if (!envelope_.contains(n)) return false;
    const std::vector<std::uint64_t>& words = live_[n.level];
    if (words.empty()) return false;
    return (words[n.index >> 6] >> (n.index & 63)) & 1;
  }

  /// True iff the coordinate is live and has no live child.
  [[nodiscard]] bool is_leaf(Node n) const noexcept {
    if (!is_live(n)) return false;
    if (n.level + 1 >= envelope_.levels()) return true;
    return !is_live(left_child(n)) && !is_live(right_child(n));
  }

  // ---- Mutations --------------------------------------------------------

  /// Makes `target` live. Fails with kNotInEnvelope / kOccupied /
  /// kParentMissing (the parent coordinate must already be live).
  DynStatus insert_node(Node target);

  /// Removes `leaf`. Fails with kNotLive / kIsRoot / kHasChildren (a
  /// live child must be removed first).
  DynStatus remove_leaf(Node leaf);

  // ---- Traversal / verification -----------------------------------------

  /// Visits every live node, level by level, left to right.
  template <typename Visitor>
  void for_each_live(Visitor&& visit) const {
    for (std::uint32_t j = 0; j <= deepest_; ++j) {
      const std::vector<std::uint64_t>& words = live_[j];
      for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t bits = words[w];
        while (bits != 0) {
          const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
          visit(Node{j, (static_cast<std::uint64_t>(w) << 6) + b});
          bits &= bits - 1;
        }
      }
    }
  }

  /// All live nodes, level by level — the node set a from-scratch rebuild
  /// or a full recoloring sweep walks.
  [[nodiscard]] std::vector<Node> live_nodes() const;

  /// Full invariant check (test hook): the root is live, every live
  /// non-root node has a live parent, per-level counts match the bitmaps,
  /// and deepest_ is exact.
  [[nodiscard]] bool validate() const;

 private:
  /// Ensures level j's bitmap exists (allocated on first touch, so a
  /// shallow tree in a deep envelope stays cheap).
  void ensure_level(std::uint32_t j);
  void set_live(Node n);
  void clear_live(Node n);

  CompleteBinaryTree envelope_;
  std::vector<std::vector<std::uint64_t>> live_;  ///< per-level bitmaps
  std::vector<std::uint64_t> level_count_;        ///< live nodes per level
  std::uint64_t size_ = 0;
  std::uint32_t deepest_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace pmtree::dyn
