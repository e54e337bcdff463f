// TreeMapping: the abstract interface of a memory-module assignment.
//
// A mapping "colors" every node of a complete binary tree with a module
// number in {0 .. num_modules()-1} (Section 1.1 of the paper: mapping onto
// a parallel memory system == M-coloring of the tree). Concrete mappings:
//
//   * ColorMapping      — the paper's COLOR / BASIC-COLOR algorithm (§3);
//   * LabelTreeMapping  — LABEL-TREE from ref. [2], reconstructed (§6);
//   * ModuloMapping, LevelModMapping, RandomMapping — naive baselines;
//   * MigratedMapping   — per-subtree color rotation over any of them.
//
// `color_of` must be a pure function of the node, and a mapping never
// changes after construction, its tree() included, so a combinator may
// take its base's shape once. Implementations document their retrieval
// complexity since the paper treats addressing cost as a first-class
// evaluation criterion.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pmtree/tree/node.hpp"
#include "pmtree/tree/tree.hpp"

namespace pmtree {

/// Memory-module number. The paper calls these "colors".
using Color = std::uint32_t;

class TreeMapping {
 public:
  explicit TreeMapping(CompleteBinaryTree tree) noexcept : tree_(tree) {}
  virtual ~TreeMapping() = default;

  TreeMapping(const TreeMapping&) = default;
  TreeMapping& operator=(const TreeMapping&) = delete;

  /// The module storing node `n`. Precondition: tree().contains(n).
  [[nodiscard]] virtual Color color_of(Node n) const = 0;

  /// Batch retrieval kernel: `out[i] = color_of(nodes[i])` for every i.
  /// Precondition: out.size() >= nodes.size(). The base implementation is a
  /// per-node loop; concrete mappings override it with devirtualized fast
  /// paths (table lookups, branch-free arithmetic loops, and ColorMapping's
  /// block-aware resolver that amortizes the §3.2 inheritance chase across
  /// the batch). Thread-safe: concurrent calls on one mapping are allowed.
  virtual void color_of_batch(std::span<const Node> nodes,
                              std::span<Color> out) const;

  /// Number of memory modules (colors) the mapping may use.
  [[nodiscard]] virtual std::uint32_t num_modules() const noexcept = 0;

  /// Human-readable identifier used in benchmark tables.
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] const CompleteBinaryTree& tree() const noexcept { return tree_; }

  /// Bulk retrieval convenience; routed through color_of_batch.
  [[nodiscard]] std::vector<Color> colors_of(std::span<const Node> nodes) const;

 private:
  CompleteBinaryTree tree_;
};

}  // namespace pmtree
