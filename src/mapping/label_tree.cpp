#include "pmtree/mapping/label_tree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace pmtree {

LabelTreeMapping::LabelTreeMapping(CompleteBinaryTree tree, std::uint32_t M,
                                   Retrieval retrieval, std::uint32_t l_override)
    : TreeMapping(tree), M_(M), retrieval_(retrieval) {
  if (M < 3) throw std::invalid_argument("LABEL-TREE needs M >= 3 modules");
  m_ = ceil_log2(M);

  if (l_override != 0) {
    l_ = std::clamp(l_override, 1u, m_ - 1);
  } else {
    // l = floor(log2(ceil(sqrt(M * ceil(log2 M))))), clamped to [1, m-1]
    // so that sub-blocks are well defined for small M.
    const double root =
        std::sqrt(static_cast<double>(M) * static_cast<double>(m_));
    const auto root_up = static_cast<std::uint64_t>(std::ceil(root));
    l_ = std::clamp(floor_log2(std::max<std::uint64_t>(root_up, 2)), 1u, m_ - 1);
  }

  ell_ = static_cast<std::uint32_t>(pow2(l_) + pow2(m_ - l_) - 1);
  // With the paper's l the window always fits on the color ring; an
  // extreme l_override may make it wrap (colors stay legal mod M, the
  // conflict behaviour just degrades — which is what the ablation shows).
  assert(l_override != 0 || ell_ <= M_);
  p_ = std::max<std::uint32_t>(1, M_ / ell_);

  // MICRO-LABEL table: list index per block-relative BFS position. One
  // table serves every block because the index depends only on relative
  // position. Built exactly like the paper's Fig. 10, top-down.
  micro_.resize(tree_size(m_));
  for (std::uint32_t j = 0; j < l_; ++j) {
    for (std::uint64_t i = 0; i < pow2(j); ++i) {
      micro_[pow2(j) - 1 + i] = static_cast<std::uint32_t>(pow2(j) - 1 + i);
    }
  }
  const std::uint64_t sub = pow2(l_ - 1);  // sub-block size
  for (std::uint32_t j = l_; j < m_; ++j) {
    for (std::uint64_t h = 0; h < pow2(j - l_ + 1); ++h) {
      for (std::uint64_t t = 0; t + 1 < sub; ++t) {
        // b_t inherits the list index of BFS position t of the sub-block
        // tree rooted at the sibling of this sub-block's (l-1)-st ancestor.
        const std::uint64_t hs = h ^ 1;
        const std::uint32_t rho = floor_log2(t + 1);
        const std::uint64_t s = t + 1 - pow2(rho);
        const std::uint32_t src_level = j - l_ + 1 + rho;
        const std::uint64_t src_index = (hs << rho) + s;
        micro_[pow2(j) - 1 + h * sub + t] = micro_[pow2(src_level) - 1 + src_index];
      }
      // Last node of the sub-block: fresh list index (Fig. 10, line 13).
      micro_[pow2(j) - 1 + h * sub + (sub - 1)] =
          static_cast<std::uint32_t>(pow2(l_) + pow2(j - l_) + h / 2 - 1);
    }
  }
  assert(*std::max_element(micro_.begin(), micro_.end()) < ell_);
}

std::uint32_t LabelTreeMapping::sigma_recursive(std::uint32_t r,
                                                std::uint64_t irel) const noexcept {
  const std::uint64_t sub = pow2(l_ - 1);
  while (r >= l_) {
    const std::uint64_t h = irel >> (l_ - 1);
    const std::uint64_t p = irel & (sub - 1);
    if (p == sub - 1) {
      return static_cast<std::uint32_t>(pow2(l_) + pow2(r - l_) + h / 2 - 1);
    }
    const std::uint64_t hs = h ^ 1;
    const std::uint32_t rho = floor_log2(p + 1);
    const std::uint64_t s = p + 1 - pow2(rho);
    r = r - l_ + 1 + rho;
    irel = (hs << rho) + s;
  }
  return static_cast<std::uint32_t>(pow2(r) - 1 + irel);
}

Color LabelTreeMapping::color_of(Node n) const {
  assert(tree().contains(n));
  const std::uint32_t jb = n.level / m_;       // block generation
  const std::uint32_t r = n.level % m_;        // level within the block
  const std::uint64_t ib = n.index >> r;       // block index within generation
  const std::uint64_t irel = n.index - (ib << r);

  const std::uint32_t sigma = retrieval_ == Retrieval::kTable
                                  ? sigma_table(pow2(r) - 1 + irel)
                                  : sigma_recursive(r, irel);

  // MACRO-LABEL + ROTATE: the block's window on the color ring starts at
  // jb*ell (one full window per generation — the "group") plus ib
  // (consecutive same-level blocks shift by one).
  const std::uint64_t base = std::uint64_t{jb} * ell_ + ib;
  return static_cast<Color>((base + sigma) % M_);
}

void LabelTreeMapping::color_of_batch(std::span<const Node> nodes,
                                      std::span<Color> out) const {
  assert(out.size() >= nodes.size());
  const bool table = retrieval_ == Retrieval::kTable;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node n = nodes[i];
    const std::uint32_t jb = n.level / m_;
    const std::uint32_t r = n.level % m_;
    const std::uint64_t ib = n.index >> r;
    const std::uint64_t irel = n.index - (ib << r);
    const std::uint32_t sigma = table ? sigma_table(pow2(r) - 1 + irel)
                                      : sigma_recursive(r, irel);
    out[i] = static_cast<Color>((std::uint64_t{jb} * ell_ + ib + sigma) % M_);
  }
}

std::string LabelTreeMapping::name() const {
  return "LABEL-TREE(M=" + std::to_string(M_) + ")" +
         (retrieval_ == Retrieval::kTable ? "" : "+recursive");
}

}  // namespace pmtree
