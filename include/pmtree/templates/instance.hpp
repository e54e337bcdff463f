// Template instances (Section 2.1 of the paper).
//
// A template instance is a concrete subset of tree nodes accessed together
// in one parallel memory operation:
//
//   * SubtreeInstance   S_K(i, j)  — complete subtree of size K = 2^k - 1
//                                    rooted at v(i, j);
//   * LevelRunInstance  L_K(i, j)  — K consecutive nodes v(i..i+K-1, j);
//   * PathInstance      P_K(i, j)  — the K nodes from v(i, j) up to
//                                    ANC(i, j, K-1) (ascending path);
//   * CompositeInstance C(D, c)    — union of c pairwise-disjoint
//                                    elementary instances, D nodes total.
//
// Instances are small value types; `nodes()` materializes the node set in a
// canonical order (subtree: BFS; level run: left-to-right; path: bottom-up).
// Materializing trusts the fields; `fits(tree)` says whether an instance
// lies inside a tree. The family accessors (enumerate.hpp) and the
// samplers (sampler.hpp) hand out only instances that fit.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "pmtree/tree/node.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/bits.hpp"

namespace pmtree {

enum class TemplateKind : std::uint8_t { kSubtree, kLevelRun, kPath };

[[nodiscard]] constexpr const char* to_string(TemplateKind k) noexcept {
  switch (k) {
    case TemplateKind::kSubtree: return "S";
    case TemplateKind::kLevelRun: return "L";
    case TemplateKind::kPath: return "P";
  }
  return "?";
}

/// S_K(i, j): complete subtree of size K rooted at `root`.
struct SubtreeInstance {
  Node root;
  std::uint64_t size = 1;  ///< K = 2^k - 1

  [[nodiscard]] constexpr std::uint32_t levels() const noexcept {
    return tree_levels(size);
  }

  /// True iff the instance fits inside `tree`.
  [[nodiscard]] constexpr bool fits(const CompleteBinaryTree& tree) const noexcept {
    return tree.contains(root) && root.level + levels() <= tree.levels();
  }

  /// Nodes in BFS (level-by-level, left-to-right) order.
  [[nodiscard]] std::vector<Node> nodes() const;
  /// Appends nodes() to `out` without clearing it — the allocation-free
  /// form the evaluation loops feed a reused buffer through.
  void append_nodes(std::vector<Node>& out) const;
};

/// L_K(i, j): `size` consecutive nodes of one level starting at `first`.
struct LevelRunInstance {
  Node first;
  std::uint64_t size = 1;

  [[nodiscard]] constexpr bool fits(const CompleteBinaryTree& tree) const noexcept {
    return tree.contains(first) && first.index + size <= pow2(first.level);
  }

  /// Nodes left-to-right.
  [[nodiscard]] std::vector<Node> nodes() const;
  /// Appends nodes() to `out` without clearing it.
  void append_nodes(std::vector<Node>& out) const;
};

/// P_K(i, j): `size` nodes of the ascending path starting at `start`
/// (deepest node) and ending at its (size-1)-st ancestor.
struct PathInstance {
  Node start;
  std::uint64_t size = 1;

  [[nodiscard]] constexpr bool fits(const CompleteBinaryTree& tree) const noexcept {
    return tree.contains(start) && size <= std::uint64_t{start.level} + 1;
  }

  /// Nodes bottom-up (start first, topmost ancestor last).
  [[nodiscard]] std::vector<Node> nodes() const;
  /// Appends nodes() to `out` without clearing it.
  void append_nodes(std::vector<Node>& out) const;
};

/// Any elementary instance.
class ElementaryInstance {
 public:
  ElementaryInstance(SubtreeInstance s) : alt_(s) {}          // NOLINT(google-explicit-constructor)
  ElementaryInstance(LevelRunInstance l) : alt_(l) {}         // NOLINT(google-explicit-constructor)
  ElementaryInstance(PathInstance p) : alt_(p) {}             // NOLINT(google-explicit-constructor)

  [[nodiscard]] TemplateKind kind() const noexcept {
    if (std::holds_alternative<SubtreeInstance>(alt_)) return TemplateKind::kSubtree;
    if (std::holds_alternative<LevelRunInstance>(alt_)) return TemplateKind::kLevelRun;
    return TemplateKind::kPath;
  }

  [[nodiscard]] std::uint64_t size() const noexcept {
    return std::visit([](const auto& i) { return i.size; }, alt_);
  }

  [[nodiscard]] bool fits(const CompleteBinaryTree& tree) const noexcept {
    return std::visit([&](const auto& i) { return i.fits(tree); }, alt_);
  }

  [[nodiscard]] std::vector<Node> nodes() const {
    return std::visit([](const auto& i) { return i.nodes(); }, alt_);
  }

  void append_nodes(std::vector<Node>& out) const {
    std::visit([&](const auto& i) { i.append_nodes(out); }, alt_);
  }

  template <typename T>
  [[nodiscard]] const T* get_if() const noexcept {
    return std::get_if<T>(&alt_);
  }

 private:
  std::variant<SubtreeInstance, LevelRunInstance, PathInstance> alt_;
};

/// C(D, c): a composite instance — `c` pairwise-disjoint elementary
/// instances with D total nodes.
class CompositeInstance {
 public:
  CompositeInstance() = default;
  explicit CompositeInstance(std::vector<ElementaryInstance> parts)
      : parts_(std::move(parts)) {}

  void add(ElementaryInstance part) { parts_.push_back(std::move(part)); }

  [[nodiscard]] const std::vector<ElementaryInstance>& parts() const noexcept {
    return parts_;
  }

  /// c — number of constituent elementary instances.
  [[nodiscard]] std::uint64_t component_count() const noexcept {
    return parts_.size();
  }

  /// D — total number of nodes.
  [[nodiscard]] std::uint64_t size() const noexcept;

  [[nodiscard]] bool fits(const CompleteBinaryTree& tree) const noexcept;

  /// All nodes, concatenated in component order.
  [[nodiscard]] std::vector<Node> nodes() const;
  /// Appends nodes() to `out` without clearing it.
  void append_nodes(std::vector<Node>& out) const;

  /// True iff the components are pairwise node-disjoint (the paper's
  /// C-template requires this). O(D log D).
  [[nodiscard]] bool is_disjoint() const;

 private:
  std::vector<ElementaryInstance> parts_;
};

}  // namespace pmtree
