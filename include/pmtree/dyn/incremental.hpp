// IncrementalColorer: the coloring of a DynamicTree (DESIGN.md §16).
//
// Both of the paper's mappings are pure functions of the node coordinate:
// COLOR is built top-down one block generation at a time, for any height,
// and LABEL-TREE's window formula reads only (level, index). A node's
// color therefore never depends on how tall the tree currently is, so a
// tree that grows inside its envelope keeps every color it had, and the
// envelope's mapping colors every tree the DynamicTree can take. The
// colorer owns that mapping — ColorMapping(envelope, N, k) or
// LabelTreeMapping(envelope, M), built once — and forwards every color
// query to it, batch kernel included. The differential suites check that
// the colors equal a from-scratch mapping over the tree's current height
// after every mutation batch.
//
// touch() does no coloring. It counts, for the dyn metrics, the nodes the
// serve barrier handed the colorer: touches() counts every touched node,
// repeats included, and nodes_colored() counts the distinct envelope
// nodes touched so far.
//
// Concurrency: touch() is control-plane only (the serve layer calls it at
// the batch cut). color_of / color_of_batch read only the immutable
// mapping, so any number of threads may call them, concurrently with
// touch() too.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pmtree/mapping/mapping.hpp"
#include "pmtree/tree/node.hpp"
#include "pmtree/tree/tree.hpp"

namespace pmtree::dyn {

class IncrementalColorer final : public TreeMapping {
 public:
  /// COLOR(envelope, N, K = 2^k - 1). Throws std::invalid_argument where
  /// ColorMapping's constructor does.
  [[nodiscard]] static IncrementalColorer color(CompleteBinaryTree envelope,
                                                std::uint32_t N,
                                                std::uint32_t k);

  /// LABEL-TREE(envelope, M). Throws std::invalid_argument for M < 3.
  [[nodiscard]] static IncrementalColorer label_tree(
      CompleteBinaryTree envelope, std::uint32_t M);

  IncrementalColorer(IncrementalColorer&&) noexcept = default;

  /// Control-plane only: counts `nodes` (envelope coordinates) as touched.
  void touch(std::span<const Node> nodes);
  void touch(Node n);

  [[nodiscard]] Color color_of(Node n) const override {
    return mapping_->color_of(n);
  }
  void color_of_batch(std::span<const Node> nodes,
                      std::span<Color> out) const override {
    mapping_->color_of_batch(nodes, out);
  }
  [[nodiscard]] std::uint32_t num_modules() const noexcept override {
    return mapping_->num_modules();
  }
  /// "INCR-" + the envelope mapping's name.
  [[nodiscard]] std::string name() const override;

  /// Distinct envelope nodes touched since construction.
  [[nodiscard]] std::uint64_t nodes_colored() const noexcept {
    return nodes_colored_;
  }
  /// Touched nodes, counting repeats.
  [[nodiscard]] std::uint64_t touches() const noexcept { return touches_; }

 private:
  explicit IncrementalColorer(std::unique_ptr<const TreeMapping> mapping);

  std::unique_ptr<const TreeMapping> mapping_;
  /// Per-level bitmaps of touched coordinates, allocated on first touch
  /// of the level.
  std::vector<std::vector<std::uint64_t>> touched_;
  std::uint64_t nodes_colored_ = 0;
  std::uint64_t touches_ = 0;
};

}  // namespace pmtree::dyn
