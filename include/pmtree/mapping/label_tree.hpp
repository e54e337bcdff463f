// LABEL-TREE (Section 6 of the paper, original in reference [2]),
// reconstructed from the properties stated and used by the paper's proofs.
//
// The tree is cut into *disjoint* block subtrees of m = ceil(log2 M)
// levels (roots at levels jb*m). Coloring is three-staged:
//
//   * MACRO-LABEL + ROTATE (reconstructed jointly): block (ib, jb) uses
//     the length-ell color window
//
//         list[t] = (jb*ell + ib + t) mod M.
//
//     The depth term advances the window by a full ell per generation, so
//     the p = floor(M/ell) window "groups" recur along an ascending path
//     only every p generations = Omega(sqrt(M log M)) levels — the
//     MACRO-LABEL property Lemma 7's P-bound rests on. The block-index
//     term shifts consecutive same-level blocks by exactly one
//     ("list(B) = {f_0..f_{ell-1}}, list(B') = {f_1..f_ell}" in Lemma 7's
//     L-proof) and slides the window over the whole ring within each
//     generation, which is what delivers the 1 + o(1) load balance of
//     Theorem 7. (A literal group *partition* per generation cannot be
//     load balanced: the deepest generation holds a 1 - 2^-m fraction of
//     all nodes and would pin one group; see DESIGN.md §3.)
//
//   * MICRO-LABEL (pseudocode in the paper's Fig. 10): within a block,
//     the top l levels get distinct list colors (position p gets list[p]);
//     deeper levels are colored blockwise like BASIC-COLOR but with
//     sub-block parameter l, and the last node of sub-block (h, j) takes
//     list[2^l + 2^{j-l} + floor(h/2) - 1].
//
// Here l = floor(log2(ceil(sqrt(M*ceil(log2 M))))) clamped to [1, m-1] and
// ell = 2^l + 2^{m-l} - 1 (the paper's two statements about ell differ by
// one; we size the list to cover MICRO-LABEL's largest index, see
// DESIGN.md §3).
//
// Because MICRO-LABEL's list index depends only on the *relative* position
// inside a block, one table of 2^m - 1 indices serves every block: this is
// the paper's O(M)-space preprocessing giving O(1) retrieval. Without the
// table the index is resolved by an O(log M) chase (Theorem 7's
// no-preprocessing bound); both paths are implemented.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pmtree/mapping/mapping.hpp"
#include "pmtree/tree/node.hpp"
#include "pmtree/util/bits.hpp"

namespace pmtree {

class LabelTreeMapping final : public TreeMapping {
 public:
  /// Retrieval strategy; both give identical colors.
  enum class Retrieval : std::uint8_t {
    kTable,      ///< O(1) per node after O(M) preprocessing
    kRecursive,  ///< O(log M) per node, no preprocessing
  };

  /// Maps `tree` onto M >= 3 memory modules (std::invalid_argument
  /// otherwise). `l_override` (clamped to
  /// [1, m-1]; 0 = use the paper's formula) exists for the ablation bench:
  /// the choice l ~ log2(sqrt(M log M)) balances the window size ell =
  /// 2^l + 2^{m-l} - 1 — smaller l starves the top-of-block colors, larger
  /// l starves the per-level fresh colors.
  LabelTreeMapping(CompleteBinaryTree tree, std::uint32_t M,
                   Retrieval retrieval = Retrieval::kTable,
                   std::uint32_t l_override = 0);

  [[nodiscard]] Color color_of(Node n) const override;
  /// Devirtualized loop over the (table or recursive) sigma resolution —
  /// one virtual call per batch instead of one per node.
  void color_of_batch(std::span<const Node> nodes,
                      std::span<Color> out) const override;
  [[nodiscard]] std::uint32_t num_modules() const noexcept override { return M_; }
  [[nodiscard]] std::string name() const override;

  /// m: levels per block subtree.
  [[nodiscard]] std::uint32_t m() const noexcept { return m_; }
  /// l: MICRO-LABEL's sub-block parameter.
  [[nodiscard]] std::uint32_t l() const noexcept { return l_; }
  /// ell: length of each block's color window.
  [[nodiscard]] std::uint32_t ell() const noexcept { return ell_; }
  /// p: number of disjoint window positions ("groups") on the color ring.
  [[nodiscard]] std::uint32_t group_count() const noexcept { return p_; }

 private:
  /// MICRO-LABEL list index of a block-relative position, via the table.
  [[nodiscard]] std::uint32_t sigma_table(std::uint64_t rel_pos) const noexcept {
    return micro_[rel_pos];
  }
  /// Same, resolved by the O(log M) inheritance chase.
  [[nodiscard]] std::uint32_t sigma_recursive(std::uint32_t r,
                                              std::uint64_t irel) const noexcept;

  std::uint32_t M_;
  std::uint32_t m_;
  std::uint32_t l_;
  std::uint32_t ell_;
  std::uint32_t p_;
  Retrieval retrieval_;
  std::vector<std::uint32_t> micro_;  ///< rel BFS pos -> window index
};

}  // namespace pmtree
