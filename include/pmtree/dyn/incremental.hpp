// IncrementalColorer: COLOR and LABEL-TREE extended lazily as the tree
// grows (DESIGN.md §16).
//
// Both of the paper's mappings are pure functions of the node coordinate:
// a node's color never depends on how tall the tree currently is, only on
// where the node sits. That makes incremental re-coloring exact rather
// than approximate — coloring new nodes on first touch must produce the
// very same colors a from-scratch rebuild would, bit for bit, and the
// differential suites assert exactly that after every mutation batch.
//
// What "incremental" buys is the *work bound*. COLOR's recurrence (§3,
// BOTTOM) gives every node below the top k levels its color from exactly
// one strictly-shallower node (a sibling-subtree source or a Gamma
// ancestor of the parent block generation) or from a closed form. The
// colorer memoizes that recurrence: touching a node colors its whole
// dependency chain once, and every colored node is computed exactly once
// ever — amortized O(1) per colored node across a run, against O(H) per
// node for the lazy chase or O(2^H) for a full rebuild per mutation
// epoch. LABEL-TREE's window formula is already O(1) per node; the
// colorer evaluates it on first touch and stores the result in the same
// per-level stores.
//
// Concurrency contract (the serve integration): touch() is control-plane
// only — the server calls it at the batch-cut barrier, and the round's
// colors are resolved only at the round barrier that follows.
// color_of / color_of_batch are worker-safe: each level's color store is
// published once through an acquire/release pointer, and a worker only
// reads entries of nodes its batch carried, which were touched before the
// barrier (thread start inside parallel_chunks, after the round's last
// touch(), is the happens-before edge). Reads of never-touched or
// un-memoized coordinates fall back to an allocation-free cold evaluation
// of the same recurrence, so the mapping stays total and deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/mapping/mapping.hpp"
#include "pmtree/tree/node.hpp"
#include "pmtree/tree/tree.hpp"

namespace pmtree::dyn {

class IncrementalColorer final : public TreeMapping {
 public:
  enum class Scheme : std::uint8_t { kColor, kLabelTree };

  /// COLOR(envelope, N, K = 2^k - 1) extended lazily. Same preconditions
  /// as ColorMapping: 1 <= k <= N <= 60, and N > k when the envelope has
  /// more than N levels. envelope.levels() <= 26 (per-level stores).
  [[nodiscard]] static IncrementalColorer color(CompleteBinaryTree envelope,
                                                std::uint32_t N,
                                                std::uint32_t k);

  /// LABEL-TREE(envelope, M) extended lazily. Precondition: M >= 3.
  [[nodiscard]] static IncrementalColorer label_tree(
      CompleteBinaryTree envelope, std::uint32_t M);

  IncrementalColorer(IncrementalColorer&&) noexcept = default;

  /// Control-plane only: colors every node in `nodes` (and, for COLOR,
  /// each one's not-yet-colored dependency chain) if not colored yet, and
  /// grows tree() to the deepest touched level. Not thread-safe; must not
  /// run concurrently with worker-side color reads of the nodes being
  /// touched (the serve barrier provides this ordering).
  void touch(std::span<const Node> nodes);
  void touch(Node n);

  /// Worker-safe reads; see the concurrency contract above.
  [[nodiscard]] Color color_of(Node n) const override;
  void color_of_batch(std::span<const Node> nodes,
                      std::span<Color> out) const override;

  [[nodiscard]] std::uint32_t num_modules() const noexcept override;
  [[nodiscard]] std::string name() const override;

  /// Drops every memoized color and shrinks tree() back to the root —
  /// the full-recolor-per-epoch baseline re-touches the live set after
  /// every batch through this. Control-plane only.
  void reset();

  [[nodiscard]] Scheme scheme() const noexcept { return scheme_; }
  [[nodiscard]] const CompleteBinaryTree& envelope() const noexcept {
    return envelope_;
  }
  /// Nodes colored (memoized) since construction / the last reset().
  [[nodiscard]] std::uint64_t nodes_colored() const noexcept;
  /// touch()ed nodes, counting repeats — nodes_colored() / touches()
  /// exposes the amortization the differential bench reports.
  [[nodiscard]] std::uint64_t touches() const noexcept;

 private:
  IncrementalColorer(CompleteBinaryTree envelope, Scheme scheme,
                     std::uint32_t N, std::uint32_t k, std::uint32_t M);

  /// Colors n (memoizing the whole dependency chain) and returns it.
  Color ensure(Node n);
  /// Allocation-free evaluation of the recurrence, for cold reads.
  [[nodiscard]] Color compute_cold(Node n) const;
  /// The level's store, allocated and published on first control-plane
  /// touch of the level.
  [[nodiscard]] Color* writable_level(std::uint32_t j);

  static constexpr Color kUncolored = 0xFFFFFFFFu;

  /// Shared mutable state, behind one indirection so the colorer stays
  /// movable despite the atomics.
  struct State {
    /// Per-level color stores; entries are kUncolored until memoized.
    /// Owned here, published below.
    std::vector<std::unique_ptr<Color[]>> owned;
    /// Acquire/release publication points for worker reads.
    std::vector<std::atomic<Color*>> published;
    /// Control-plane bitmap: which entries are memoized.
    std::vector<std::vector<std::uint64_t>> colored;
    std::uint64_t nodes_colored = 0;
    std::uint64_t touches = 0;
  };

  CompleteBinaryTree envelope_;
  Scheme scheme_;
  std::uint32_t n_ = 0;        ///< COLOR: N
  std::uint32_t k_ = 0;        ///< COLOR: k
  std::uint32_t modules_ = 0;  ///< N + K - k, or M
  std::uint32_t touched_levels_ = 1;  ///< deepest touched level + 1
  /// LABEL-TREE's closed form, evaluated per touched node (the micro
  /// table it builds is tree_size(ceil(log2 M)) entries — tiny).
  std::unique_ptr<LabelTreeMapping> label_;
  std::unique_ptr<State> state_;
};

}  // namespace pmtree::dyn
