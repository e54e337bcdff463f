// Mapping combinators. Each wraps a base mapping it does not own and
// reports the base's tree(), which never changes (mapping.hpp).
//
// PermutedMapping composes any mapping with a bijection on the color set.
// Conflict structure is invariant under color permutation — the property
// tests rely on this to check that the analysis layer measures structure,
// not incidental color values — while load *per module* permutes with it.
//
// DegradedMapping composes any mapping with a *partial* collapse of the
// color set: a list of dead modules is folded onto the survivors by a
// deterministic round-robin, modelling a parallel memory system that has
// lost modules. Unlike a permutation this is lossy — formerly
// conflict-free template instances can collide on a survivor — which is
// exactly what the fault layer (pmtree/fault) wants to measure: the
// paper's guarantees degrade gracefully and quantifiably rather than
// vanishing (DESIGN.md §12).
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

#include <cassert>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "pmtree/mapping/mapping.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree {

class PermutedMapping final : public TreeMapping {
 public:
  /// Wraps `base` (not owned; must outlive this object) with `permutation`,
  /// a bijection on {0 .. base.num_modules()-1}.
  PermutedMapping(const TreeMapping& base, std::vector<Color> permutation)
      : TreeMapping(base.tree()), base_(base), perm_(std::move(permutation)) {
    assert(perm_.size() == base.num_modules());
  }

  /// Convenience: a uniformly random permutation drawn from `rng`.
  [[nodiscard]] static PermutedMapping shuffled(const TreeMapping& base,
                                                Rng& rng) {
    std::vector<Color> perm(base.num_modules());
    std::iota(perm.begin(), perm.end(), 0u);
    // Fisher-Yates with the library Rng (std::shuffle's distribution is
    // implementation-defined; this keeps streams reproducible everywhere).
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
    return PermutedMapping(base, std::move(perm));
  }

  [[nodiscard]] Color color_of(Node n) const override {
    return perm_[base_.color_of(n)];
  }
  /// Delegates to the base's batch kernel, then permutes in place — the
  /// wrapper adds one pass, not one virtual call per node.
  void color_of_batch(std::span<const Node> nodes,
                      std::span<Color> out) const override {
    base_.color_of_batch(nodes, out);
    for (std::size_t i = 0; i < nodes.size(); ++i) out[i] = perm_[out[i]];
  }
  [[nodiscard]] std::uint32_t num_modules() const noexcept override {
    return base_.num_modules();
  }
  [[nodiscard]] std::string name() const override {
    return base_.name() + "+perm";
  }

 private:
  const TreeMapping& base_;
  std::vector<Color> perm_;
};

class DegradedMapping final : public TreeMapping {
 public:
  /// Wraps `base` (not owned; must outlive this object), remapping every
  /// color in `dead_modules` onto a surviving module. The j-th dead module
  /// (in ascending id order) folds onto the j-th live module modulo the
  /// live count — the same rule FaultTimeline uses for reroute targets, so
  /// a steady-state post-failure engine run and a DegradedMapping run agree
  /// on where every access lands. At least one module must survive.
  DegradedMapping(const TreeMapping& base, std::vector<Color> dead_modules)
      : TreeMapping(base.tree()), base_(base) {
    const std::uint32_t modules = base.num_modules();
    redirect_.resize(modules);
    std::iota(redirect_.begin(), redirect_.end(), 0u);
    std::vector<bool> dead(modules, false);
    for (Color d : dead_modules) {
      assert(d < modules);
      dead[d] = true;
    }
    std::vector<Color> live;
    for (Color m = 0; m < modules; ++m) {
      if (!dead[m]) live.push_back(m);
    }
    assert(!live.empty() && "DegradedMapping requires a surviving module");
    std::size_t j = 0;
    for (Color m = 0; m < modules; ++m) {
      if (dead[m]) redirect_[m] = live[j++ % live.size()];
    }
    live_count_ = static_cast<std::uint32_t>(live.size());
  }

  [[nodiscard]] Color color_of(Node n) const override {
    return redirect_[base_.color_of(n)];
  }
  void color_of_batch(std::span<const Node> nodes,
                      std::span<Color> out) const override {
    base_.color_of_batch(nodes, out);
    for (std::size_t i = 0; i < nodes.size(); ++i) out[i] = redirect_[out[i]];
  }
  /// The color *space* is unchanged — dead modules simply receive no nodes.
  /// Keeping num_modules() stable lets degraded results compare per-module
  /// against healthy ones without reindexing.
  [[nodiscard]] std::uint32_t num_modules() const noexcept override {
    return base_.num_modules();
  }
  [[nodiscard]] std::uint32_t live_modules() const noexcept {
    return live_count_;
  }
  [[nodiscard]] const std::vector<Color>& redirect_table() const noexcept {
    return redirect_;
  }
  [[nodiscard]] std::string name() const override {
    return base_.name() + "+degraded";
  }

 private:
  const TreeMapping& base_;
  std::vector<Color> redirect_;
  std::uint32_t live_count_ = 0;
};

class MigratedMapping final : public TreeMapping {
 public:
  /// Wraps `base` (not owned; must outlive this object) with a per-subtree
  /// color rotation at granularity `subtree_level` L. `rotation` has one
  /// entry per subtree rooted at level L (size 1 << L, each entry
  /// < base.num_modules()); node n with n.level >= L belongs to subtree
  /// n.index >> (n.level - L) and maps to
  /// (base.color_of(n) + rotation[subtree]) mod M. Nodes above L keep
  /// their base colors — at subtree granularity they cannot be migrated.
  MigratedMapping(const TreeMapping& base, std::uint32_t subtree_level,
                  std::vector<Color> rotation)
      : TreeMapping(base.tree()),
        base_(base),
        level_(subtree_level),
        rot_(std::move(rotation)) {
    assert(rot_.size() == (std::size_t{1} << level_));
#ifndef NDEBUG
    for (const Color r : rot_) assert(r < base.num_modules());
#endif
  }

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
  /// branch-light pass — same shape as DegradedMapping.
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
  const TreeMapping& base_;
  std::uint32_t level_;
  std::vector<Color> rot_;
};

}  // namespace pmtree
