// Naive baseline mappings. These are the strawmen every conflict table in
// bench/ compares against: they retrieve in O(1) but have no structural
// guarantees, so templates can hit the worst case D conflicts.
//
//   * ModuloMapping:     color = bfs_id mod M. Level runs are perfect, but
//     subtrees and paths collide badly (a node and its 2^t-step ancestors
//     repeat colors with period gcd-driven patterns).
//   * LevelModMapping:   color = level mod M. The single-template
//     specialist: conflict-free on ascending paths, bad on level runs and
//     subtrees.
//   * RandomMapping:     color = hash(bfs_id) mod M. The classic balls-in-
//     bins yardstick: expected Theta(log M / log log M) conflicts at
//     template size M; never conflict-free.
#pragma once

#include <cstdint>
#include <string>

#include "pmtree/mapping/mapping.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree {

class ModuloMapping final : public TreeMapping {
 public:
  ModuloMapping(CompleteBinaryTree tree, std::uint32_t M)
      : TreeMapping(tree), M_(M) {}

  [[nodiscard]] Color color_of(Node n) const override {
    return static_cast<Color>(bfs_id(n) % M_);
  }
  /// Branch-free arithmetic loop — no virtual dispatch per node.
  void color_of_batch(std::span<const Node> nodes,
                      std::span<Color> out) const override {
    const std::uint64_t M = M_;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      out[i] = static_cast<Color>(bfs_id(nodes[i]) % M);
    }
  }
  [[nodiscard]] std::uint32_t num_modules() const noexcept override { return M_; }
  [[nodiscard]] std::string name() const override {
    return "MODULO(M=" + std::to_string(M_) + ")";
  }

 private:
  std::uint32_t M_;
};

/// The "single-template specialist" the paper's Section 1.2 contrasts
/// against ("most of the proposed mappings considers only one kind of
/// elementary template at a time"): color = level mod M is trivially
/// conflict-free on every ascending path of up to M nodes — with only M
/// modules, fewer than COLOR's 2M - log M — but costs K - 1 on L(K) and
/// K - ceil(log K) on S(K): versatility is what the extra modules buy.
class LevelModMapping final : public TreeMapping {
 public:
  LevelModMapping(CompleteBinaryTree tree, std::uint32_t M)
      : TreeMapping(tree), M_(M) {}

  [[nodiscard]] Color color_of(Node n) const override {
    return static_cast<Color>(n.level % M_);
  }
  void color_of_batch(std::span<const Node> nodes,
                      std::span<Color> out) const override {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      out[i] = static_cast<Color>(nodes[i].level % M_);
    }
  }
  [[nodiscard]] std::uint32_t num_modules() const noexcept override { return M_; }
  [[nodiscard]] std::string name() const override {
    return "LEVEL-MOD(M=" + std::to_string(M_) + ")";
  }

 private:
  std::uint32_t M_;
};

class RandomMapping final : public TreeMapping {
 public:
  RandomMapping(CompleteBinaryTree tree, std::uint32_t M, std::uint64_t seed = 1)
      : TreeMapping(tree), M_(M), seed_(seed) {}

  [[nodiscard]] Color color_of(Node n) const override {
    return static_cast<Color>(mix64(bfs_id(n) ^ seed_) % M_);
  }
  void color_of_batch(std::span<const Node> nodes,
                      std::span<Color> out) const override {
    const std::uint64_t M = M_;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      out[i] = static_cast<Color>(mix64(bfs_id(nodes[i]) ^ seed_) % M);
    }
  }
  [[nodiscard]] std::uint32_t num_modules() const noexcept override { return M_; }
  [[nodiscard]] std::string name() const override {
    return "RANDOM(M=" + std::to_string(M_) + ")";
  }

 private:
  std::uint32_t M_;
  std::uint64_t seed_;
};

}  // namespace pmtree
