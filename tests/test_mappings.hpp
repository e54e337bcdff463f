// Test-only mappings: two wrappers and one baseline that the suites build
// and the library does not. Header-only; each suite includes it directly.
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
// conflict-free template instances can collide on a survivor. It is the
// routing oracle of the fault suites: the engine reroutes through
// FaultTimeline's redirect table (fault/plan.hpp), and a steady-state
// post-failure engine run must land every access where DegradedMapping
// colors it (DESIGN.md §12).
//
// LevelShiftMapping: color = (level + index) mod M — the "diagonal"
// scheme borrowed from array skewing; good on paths of short period, bad
// on subtrees. A third naive baseline beside mapping/baselines.hpp's.
//
// PoisonMapping forwards to a base mapping, except that its batch kernel
// throws std::runtime_error naming the node when a batch holds one of its
// poison nodes: the serve suites' probe of how a throwing color
// resolution reaches run()'s caller.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <stdexcept>
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

class LevelShiftMapping final : public TreeMapping {
 public:
  LevelShiftMapping(CompleteBinaryTree tree, std::uint32_t M)
      : TreeMapping(tree), M_(M) {}

  [[nodiscard]] Color color_of(Node n) const override {
    return static_cast<Color>((n.level + n.index) % M_);
  }
  /// Branch-free arithmetic loop — no virtual dispatch per node.
  void color_of_batch(std::span<const Node> nodes,
                      std::span<Color> out) const override {
    const std::uint64_t M = M_;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      out[i] = static_cast<Color>((nodes[i].level + nodes[i].index) % M);
    }
  }
  [[nodiscard]] std::uint32_t num_modules() const noexcept override { return M_; }
  [[nodiscard]] std::string name() const override {
    return "LEVEL-SHIFT(M=" + std::to_string(M_) + ")";
  }

 private:
  std::uint32_t M_;
};

class PoisonMapping final : public TreeMapping {
 public:
  /// Wraps `base` (not owned; must outlive this object).
  PoisonMapping(const TreeMapping& base, std::vector<Node> poison)
      : TreeMapping(base.tree()), base_(base), poison_(std::move(poison)) {}

  [[nodiscard]] Color color_of(Node n) const override {
    return base_.color_of(n);
  }
  void color_of_batch(std::span<const Node> nodes,
                      std::span<Color> out) const override {
    for (const Node n : nodes) {
      if (std::find(poison_.begin(), poison_.end(), n) != poison_.end()) {
        throw std::runtime_error("poison node (" + std::to_string(n.level) +
                                 ", " + std::to_string(n.index) + ")");
      }
    }
    base_.color_of_batch(nodes, out);
  }
  [[nodiscard]] std::uint32_t num_modules() const noexcept override {
    return base_.num_modules();
  }
  [[nodiscard]] std::string name() const override {
    return base_.name() + "+poison";
  }

 private:
  const TreeMapping& base_;
  std::vector<Node> poison_;
};

}  // namespace pmtree
