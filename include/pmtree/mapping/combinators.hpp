// Mapping combinator: MigratedMapping wraps a base mapping it does not
// own and reports the base's tree(), which never changes (mapping.hpp).
//
// MigratedMapping composes any mapping with a *per-subtree* color
// rotation at a fixed granularity level L: every node at level >= L adds
// its subtree's rotation offset (mod M) to its base color, while nodes
// above L keep their base colors. A rotation is a color permutation
// restricted to one subtree, so the conflict structure of any template
// instance contained in a single subtree is exactly the base mapping's —
// what moves is which *modules* carry the subtree's load. That is the
// primitive the serve layer's skew-adaptive planner needs: migrating a
// hot subtree onto cold modules without touching the paper's
// conflict-freedom inside the subtree (DESIGN.md §15).
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pmtree/mapping/mapping.hpp"

namespace pmtree {

class MigratedMapping final : public TreeMapping {
 public:
  /// Wraps `base` (not owned; must outlive this object) with a per-subtree
  /// color rotation at granularity `subtree_level` L. `rotation` has one
  /// entry per subtree rooted at level L (size 1 << L, each entry
  /// < base.num_modules()); node n with n.level >= L belongs to subtree
  /// n.index >> (n.level - L) and maps to
  /// (base.color_of(n) + rotation[subtree]) mod M. Nodes above L keep
  /// their base colors — at subtree granularity they cannot be migrated.
  /// Throws std::invalid_argument for any other table, before building
  /// anything.
  MigratedMapping(const TreeMapping& base, std::uint32_t subtree_level,
                  std::vector<Color> rotation)
      : TreeMapping(checked(base, subtree_level, rotation).tree()),
        base_(base),
        level_(subtree_level),
        rot_(std::move(rotation)) {}

  [[nodiscard]] Color color_of(Node n) const override {
    Color c = base_.color_of(n);
    if (n.level >= level_) {
      c += rot_[n.index >> (n.level - level_)];
      const std::uint32_t m = base_.num_modules();
      if (c >= m) c -= m;
    }
    return c;
  }
  /// Delegates to the base's devirtualized batch kernel (the PR 2
  /// accelerator / PR 7 SIMD gather), then applies the rotation in one
  /// branch-light pass.
  void color_of_batch(std::span<const Node> nodes,
                      std::span<Color> out) const override {
    base_.color_of_batch(nodes, out);
    const std::uint32_t m = base_.num_modules();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Node n = nodes[i];
      if (n.level < level_) continue;
      Color c = out[i] + rot_[n.index >> (n.level - level_)];
      if (c >= m) c -= m;
      out[i] = c;
    }
  }
  /// The color space is unchanged: rotations permute colors per subtree.
  [[nodiscard]] std::uint32_t num_modules() const noexcept override {
    return base_.num_modules();
  }
  [[nodiscard]] std::uint32_t subtree_level() const noexcept {
    return level_;
  }
  [[nodiscard]] const std::vector<Color>& rotation_table() const noexcept {
    return rot_;
  }
  /// True when every rotation is 0 — the mapping is then the base,
  /// color for color.
  [[nodiscard]] bool is_identity() const noexcept {
    for (const Color r : rot_) {
      if (r != 0) return false;
    }
    return true;
  }
  [[nodiscard]] std::string name() const override {
    return base_.name() + "+migrated";
  }

 private:
  static const TreeMapping& checked(const TreeMapping& base,
                                    std::uint32_t subtree_level,
                                    const std::vector<Color>& rotation) {
    if (subtree_level >= 64 ||
        rotation.size() != (std::size_t{1} << subtree_level)) {
      throw std::invalid_argument(
          "MigratedMapping needs one rotation per subtree at its level");
    }
    for (const Color r : rotation) {
      if (r >= base.num_modules()) {
        throw std::invalid_argument(
            "MigratedMapping rotations must be below the module count");
      }
    }
    return base;
  }

  const TreeMapping& base_;
  std::uint32_t level_;
  std::vector<Color> rot_;
};

}  // namespace pmtree
