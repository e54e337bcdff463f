// The paper's COLOR algorithm (Section 3) and its building block
// BASIC-COLOR.
//
// COLOR(T, N, K), with K = 2^k - 1 and N >= k, colors a complete binary
// tree with N + K - k colors such that access to every complete subtree of
// size K (S-template) and every ascending path of N nodes (P-template) is
// conflict-free, and access to every run of K consecutive same-level nodes
// (L-template) costs at most one conflict. Theorem 2 shows N + K - k
// colors are necessary, so the mapping is CF-optimal.
//
// Structure (Fig. 6/7 of the paper): the tree is divided into the family
// B(N) of overlapping blocks — complete subtrees of N levels whose roots
// sit at levels j*(N-k) — so consecutive block generations share k levels.
// The root block is colored by BASIC-COLOR: its top k levels get the
// distinct colors Sigma = {0..K-1} (node v(i,j) gets color 2^j + i - 1 =
// its BFS id), and each deeper level is colored blockwise by BOTTOM: the
// first 2^{k-1}-1 nodes of block(h, j) copy the colors of the non-leaf
// nodes of the size-K subtree rooted at the *sibling* of the block's
// (k-1)-st ancestor, and the last node takes the fresh color
// Gamma[j - k] (Gamma = {K .. N+K-k-1}). Deeper blocks B(i, jb) reuse
// BOTTOM with Gamma(i, jb) = the colors of the N-k nodes from the parent
// block's root down to the parent of this block's root (top-down order;
// see DESIGN.md §3 for why both endpoints' treatment matters — the
// GammaVariant mutants exist to let tests prove the resolution correct).
//
// Retrieval cost (paper §3.2): O(H) time per node with no precomputation
// (color_of), O(1) with the O(2^H)-space full table (materialize /
// EagerColorMapping below). Both paths are implemented and tested to
// agree; the conflict theorems are validated against both.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pmtree/mapping/mapping.hpp"
#include "pmtree/tree/block.hpp"
#include "pmtree/tree/node.hpp"
#include "pmtree/util/bits.hpp"

namespace pmtree {

namespace internal {

/// Which node set Gamma(i, jb) is read from. The paper's text is ambiguous
/// ("the path from the root of B(i', j-1) to the root of B(i, j)" has
/// N-k+1 nodes but Gamma must have N-k); kCorrect is the resolution proved
/// right by the exhaustive conflict-freeness tests, the others are mutants
/// used in failure-injection tests and the E2 bench.
enum class GammaVariant : std::uint8_t {
  kCorrect,           ///< parent-block root .. parent of this block's root
  kIncludeChildRoot,  ///< parent of parent-block root's child .. block root
  kReversed,          ///< kCorrect's node set in bottom-up order
};

}  // namespace internal

/// COLOR(T, N, K). See file comment. The constructor throws
/// std::invalid_argument unless 1 <= k <= N <= 60, N > k whenever the tree
/// has more than N levels (otherwise the block family B(N) is undefined —
/// the paper requires it implicitly via H = h(N-k)+N), and the N + K - k
/// colors fit a Color.
class ColorMapping : public TreeMapping {
 public:
  /// Retrieval strategy; all modes give identical colors.
  enum class Retrieval : std::uint8_t {
    /// O(H) time, O(1) space: chase the inheritance chain node by node.
    kLazy,
    /// O(H/(N-k)) time after O(2^N) preprocessing: the paper's
    /// PRE-BASIC-COLOR builds the UP table once — the inheritance chase
    /// within a block depends only on the *relative* position, so a single
    /// block-shaped table resolves any block in one lookup and retrieval
    /// jumps block to block (RETRIEVING-COLOR, Fig. 9).
    kBlockTable,
  };

  ColorMapping(CompleteBinaryTree tree, std::uint32_t N, std::uint32_t k,
               internal::GammaVariant variant = internal::GammaVariant::kCorrect,
               Retrieval retrieval = Retrieval::kLazy);

  /// K = 2^k - 1: the conflict-free subtree template size.
  [[nodiscard]] std::uint64_t K() const noexcept { return tree_size(k_); }
  [[nodiscard]] std::uint32_t N() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }

  /// N + K - k modules (Theorem 1 / Theorem 3).
  [[nodiscard]] std::uint32_t num_modules() const noexcept override;

  /// O(H) time with kLazy, O(H/(N-k)) with kBlockTable.
  [[nodiscard]] Color color_of(Node n) const override;

  /// Block-aware batch kernel. The per-node chase of §3.2 re-derives two
  /// shared prefixes over and over: the colors of the tree's top levels
  /// (where every chase terminates) and each block's Gamma list (which
  /// every block-last node of the block reads). The batch resolver pays
  /// for them once instead of once per node:
  ///
  ///   * a truncated materialization of the top min(H, 20) levels (built
  ///     lazily on first use, shared across calls and copies) turns any
  ///     chase step that lands above the horizon into one lookup;
  ///   * a position-only block resolution table (the kBlockTable table,
  ///     built for the batch path even under kLazy when it fits) collapses
  ///     the within-block chase to one lookup;
  ///   * when the top table covers a whole block, every chase provably
  ///     terminates in a top-table gather; the kernel then runs two
  ///     phases — a branch-free arithmetic chase (each jump is one
  ///     precomposed Step lookup) that emits terminal BFS ids, then one
  ///     tight gather loop whose independent loads the CPU overlaps;
  ///   * outside the fast path, input runs inside one block share that
  ///     block's resolved Gamma entries through a per-block memo, so a
  ///     group of nodes triggers each Gamma chase once per block.
  ///
  /// Net: N nodes x O(H) chases become O(H/(N-k)) branch-free arithmetic
  /// steps plus O(1) gathers per node. Identical colors to color_of in
  /// every retrieval mode.
  void color_of_batch(std::span<const Node> nodes,
                      std::span<Color> out) const override;

  [[nodiscard]] std::string name() const override;

  /// Colors of the whole tree indexed by bfs_id — the O(2^H) table the
  /// paper's PRE-* preprocessing ultimately enables. Computed by a direct
  /// level-by-level simulation of BASIC-COLOR/BOTTOM (independent of
  /// color_of's recursion, so the two act as cross-checks).
  [[nodiscard]] std::vector<Color> materialize() const;

 private:
  /// Where a block-relative position ultimately takes its color from:
  /// either a BFS position among the block's top k levels, or entry t of
  /// the block's Gamma list. This is position-only, so one table serves
  /// every block of the tree (the paper's UP table, collapsed).
  struct Resolution {
    bool from_gamma = false;
    std::uint32_t value = 0;  ///< BFS position, or Gamma index t
  };

  /// Resolves a block-relative (level, index) by chasing inheritance.
  [[nodiscard]] Resolution resolve_in_block(std::uint32_t r,
                                            std::uint64_t irel) const noexcept;

  /// Shared state of the batch kernel: the resolved-once block prefixes.
  /// Built lazily by accel() on first color_of_batch call (atomically
  /// published, so concurrent batch calls are safe) and shared by copies;
  /// immutable once published.
  /// One inheritance-chase jump, compiled to branch-free arithmetic. A
  /// chase step from block position (r, irel) of block (ib, jb) lands on
  /// either a Gamma node of the parent generation or a shared top-k node —
  /// both have the closed form
  ///   level = jb*stride + dlevel,  index = ((ib >> rshift) << lshift) + add
  /// so one 8-byte table entry replaces the resolve + from_gamma branch +
  /// gamma_node/subtree_node_at call of the scalar chase.
  struct Step {
    std::int8_t dlevel = 0;
    std::uint8_t rshift = 0;
    std::uint8_t lshift = 0;
    std::uint32_t add = 0;
  };

  struct BatchAccel {
    std::uint32_t top_levels = 0;  ///< levels [0, top_levels) materialized
    std::vector<Color> top_colors;
    std::vector<Resolution> block_table;  ///< kLazy batch path; empty if too big
    /// Fast-chase tables, built when the top table covers a whole block
    /// (then every chase provably terminates in a top-table gather).
    /// Per level j >= k: block-relative level r, block root level jb*stride,
    /// and 2^r - 1 (the level's offset into the position table) — three L1
    /// lookups replace the per-step division by the stride.
    std::vector<std::uint8_t> r_of;
    std::vector<std::uint8_t> root_of;
    std::vector<std::uint32_t> pos_base;
    std::vector<Step> steps;  ///< composed jump per block position
  };
  [[nodiscard]] const BatchAccel& accel() const;

  /// Colors of the top `levels` levels by bfs_id — materialize() truncated.
  [[nodiscard]] std::vector<Color> materialize_prefix(std::uint32_t levels) const;

  std::uint32_t n_;  ///< N: levels per block
  std::uint32_t k_;  ///< k: log2(K+1)
  internal::GammaVariant variant_;
  Retrieval retrieval_;
  std::vector<Resolution> block_table_;  ///< kBlockTable: 2^min(N,H) - 1 entries
  mutable std::shared_ptr<const BatchAccel> accel_;
};

/// BASIC-COLOR(B, N, K): the single-block special case — a tree of at most
/// N levels colored with N + K - k colors (Theorem 1). Provided as its own
/// type because the paper analyses it separately. Throws
/// std::invalid_argument for a taller tree, and where ColorMapping does.
class BasicColorMapping final : public ColorMapping {
 public:
  BasicColorMapping(CompleteBinaryTree tree, std::uint32_t N, std::uint32_t k);
  [[nodiscard]] std::string name() const override;
};

/// COLOR with the full color table materialized up front: O(1) retrieval,
/// O(2^H) space — the "fast addressing" end of the paper's trade-off.
class EagerColorMapping final : public TreeMapping {
 public:
  explicit EagerColorMapping(const ColorMapping& base);

  [[nodiscard]] Color color_of(Node n) const override {
    return table_[bfs_id(n)];
  }
  /// Devirtualized table gather; runs the AVX2 gather kernel when the
  /// table is small enough for 32-bit indices (trees up to 31 levels).
  void color_of_batch(std::span<const Node> nodes,
                      std::span<Color> out) const override;
  [[nodiscard]] std::uint32_t num_modules() const noexcept override {
    return modules_;
  }
  [[nodiscard]] std::string name() const override;

 private:
  std::vector<Color> table_;
  std::uint32_t modules_;
  std::string base_name_;
};

/// The Section 4 instantiation: given M = 2^m - 1 memory modules, COLOR
/// with K = 2^{m-1} - 1 and N = 2^{m-1} + m - 1 uses exactly M colors and
/// achieves cost <= 1 on S(M) and P(M) (Theorems 4-5), which is optimal.
/// For general M the largest 2^m - 1 <= M is used (paper §5: constants
/// only). M < 3 leaves k = 0, so ColorMapping throws std::invalid_argument.
[[nodiscard]] ColorMapping make_optimal_color_mapping(CompleteBinaryTree tree,
                                                      std::uint32_t M);

/// The Section 1.3 scaling knob ("the mapping algorithm must scale with
/// the number of memory modules"): given a module budget M and a subtree
/// requirement k (CF subtrees of size K = 2^k - 1), spends the remaining
/// budget on path length — the largest N with N + K - k <= M, so paths of
/// up to N = M - K + k nodes are conflict-free (Theorem 3, and optimal by
/// Theorem 2). ColorMapping throws std::invalid_argument for k == 0 and
/// for an M that leaves no valid N: M < cf_modules(k+1, k) on a tree taller
/// than one block (no level below the subtree horizon), M < K otherwise.
[[nodiscard]] ColorMapping make_cf_mapping_for_modules(CompleteBinaryTree tree,
                                                       std::uint32_t M,
                                                       std::uint32_t k);

}  // namespace pmtree
