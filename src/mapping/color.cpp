#include "pmtree/mapping/color.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

#include "pmtree/util/simd.hpp"

namespace pmtree {

namespace {

/// The node whose color is entry t (0-based, top-down for kCorrect) of
/// Gamma(ib, jb): the list of N-k node colors along the path between the
/// roots of block (ib, jb) and its parent block. `stride` is N - k.
[[nodiscard]] Node gamma_node(std::uint64_t ib, std::uint32_t jb, std::uint32_t t,
                              std::uint32_t stride,
                              internal::GammaVariant variant) noexcept {
  assert(jb >= 1 && t < stride);
  const std::uint32_t parent_root_level = (jb - 1) * stride;
  switch (variant) {
    case internal::GammaVariant::kCorrect:
      // parent-block root .. parent of this block's root, top-down.
      return Node{parent_root_level + t, ib >> (stride - t)};
    case internal::GammaVariant::kIncludeChildRoot:
      // child of parent-block root .. this block's root, top-down.
      return Node{parent_root_level + 1 + t, ib >> (stride - 1 - t)};
    case internal::GammaVariant::kReversed:
      // kCorrect's node set, bottom-up.
      return Node{parent_root_level + (stride - 1 - t), ib >> (t + 1)};
  }
  return Node{};  // unreachable
}

/// COLOR(T, N, K)'s parameter rules, the one place they are written.
void check_color_parameters(const CompleteBinaryTree& tree, std::uint32_t N,
                            std::uint32_t k) {
  if (k < 1 || k > N || N > 60) {
    throw std::invalid_argument("COLOR needs 1 <= k <= N <= 60");
  }
  // Trees taller than one block need the block family B(N), which requires
  // a positive root stride N - k.
  if (tree.levels() > N && N == k) {
    throw std::invalid_argument("COLOR needs N > k on a tree taller than N");
  }
  if (tree_size(k) - k + N > std::numeric_limits<Color>::max()) {
    throw std::invalid_argument("COLOR's N + K - k colors must fit a Color");
  }
}

}  // namespace

ColorMapping::ColorMapping(CompleteBinaryTree tree, std::uint32_t N,
                           std::uint32_t k, internal::GammaVariant variant,
                           Retrieval retrieval)
    : TreeMapping(tree), n_(N), k_(k), variant_(variant), retrieval_(retrieval) {
  check_color_parameters(tree, N, k);

  if (retrieval_ == Retrieval::kBlockTable) {
    // PRE-BASIC-COLOR: resolve every block-relative position once. The
    // chase is position-only, so this one O(2^N) table serves all blocks.
    const std::uint32_t cap = std::min(n_, tree.levels());
    block_table_.resize(tree_size(cap));
    for (std::uint64_t pos = 0; pos < block_table_.size(); ++pos) {
      const std::uint32_t r = floor_log2(pos + 1);
      block_table_[pos] = resolve_in_block(r, pos + 1 - pow2(r));
    }
  }
}

std::uint32_t ColorMapping::num_modules() const noexcept {
  return n_ + static_cast<std::uint32_t>(K()) - k_;
}

std::string ColorMapping::name() const {
  return "COLOR(N=" + std::to_string(n_) + ",K=" + std::to_string(K()) + ")" +
         (retrieval_ == Retrieval::kBlockTable ? "+blocktable" : "");
}

ColorMapping::Resolution ColorMapping::resolve_in_block(
    std::uint32_t r, std::uint64_t irel) const noexcept {
  const std::uint64_t half_block = pow2(k_ - 1);
  while (r >= k_) {
    const std::uint64_t h = irel >> (k_ - 1);
    const std::uint64_t p = irel & (half_block - 1);
    if (p == half_block - 1) {
      // Last node of block(h, r): fresh color Gamma[r - k].
      return Resolution{true, r - k_};
    }
    // Inherit the color of the node at BFS position p of the size-K
    // subtree rooted at the sibling of this block's (k-1)-st ancestor.
    const std::uint64_t hs = h ^ 1;
    const std::uint32_t rho = floor_log2(p + 1);
    const std::uint64_t s = p + 1 - pow2(rho);
    r = r - k_ + 1 + rho;
    irel = (hs << rho) + s;
  }
  // Landed in the top k levels of the block: BFS position is the source.
  return Resolution{false, static_cast<std::uint32_t>(pow2(r) - 1 + irel)};
}

Color ColorMapping::color_of(Node nd) const {
  assert(tree().contains(nd));
  const std::uint64_t Kval = K();
  Node cur = nd;
  while (true) {
    if (cur.level < k_) {
      // Top k levels of the root block: v(i, j) gets color 2^j + i - 1,
      // i.e. its BFS id (the Sigma phase of BASIC-COLOR).
      return static_cast<Color>(bfs_id(cur));
    }
    const std::uint32_t stride = n_ - k_;
    const std::uint32_t jb = (cur.level - k_) / stride;
    const std::uint32_t r = cur.level - jb * stride;  // block-relative level
    const std::uint64_t ib = cur.index >> r;          // block root index
    const std::uint64_t irel = cur.index - (ib << r);

    const Resolution res = retrieval_ == Retrieval::kBlockTable
                               ? block_table_[pow2(r) - 1 + irel]
                               : resolve_in_block(r, irel);
    if (res.from_gamma) {
      if (jb == 0) return static_cast<Color>(Kval + res.value);
      cur = gamma_node(ib, jb, res.value, stride, variant_);
    } else {
      if (jb == 0) return static_cast<Color>(res.value);
      // The source lies in this block's top k levels, which it shares with
      // its parent block: continue on the corresponding real tree node.
      cur = subtree_node_at(Node{jb * stride, ib}, res.value);
    }
  }
}

const ColorMapping::BatchAccel& ColorMapping::accel() const {
  if (auto cur = std::atomic_load_explicit(&accel_, std::memory_order_acquire)) {
    return *cur;
  }
  // Space caps: the top-color horizon is at most 2^20 - 1 entries (4 MiB)
  // and the batch-path block table at most 2^20 - 1 Resolutions. Beyond
  // them the batch kernel degrades gracefully to the per-node chase.
  constexpr std::uint32_t kTopLevelCap = 20;
  constexpr std::uint64_t kBlockTableCap = std::uint64_t{1} << 20;

  auto built = std::make_shared<BatchAccel>();
  const std::uint32_t top = std::min(tree().levels(), kTopLevelCap);
  if (top > k_) {
    built->top_levels = top;
    built->top_colors = materialize_prefix(top);
  }
  // Under kLazy the within-block resolution has no table; build one for the
  // batch path unless the top table already covers the whole tree (then no
  // chase ever consults it) or a block is too large to tabulate.
  if (retrieval_ == Retrieval::kLazy && top < tree().levels()) {
    const std::uint32_t cap = std::min(n_, tree().levels());
    if (tree_size(cap) <= kBlockTableCap) {
      built->block_table.resize(tree_size(cap));
      for (std::uint64_t pos = 0; pos < built->block_table.size(); ++pos) {
        const std::uint32_t r = floor_log2(pos + 1);
        built->block_table[pos] = resolve_in_block(r, pos + 1 - pow2(r));
      }
    }
  }
  // Fast-chase tables: precompose every block-relative position's jump into
  // a branch-free Step, plus per-level (r, root level, position base)
  // lookups. Only meaningful when the top table covers a whole block, so
  // every chase ends in a top-table gather (see color_of_batch).
  const std::vector<Resolution>* btab =
      retrieval_ == Retrieval::kBlockTable
          ? &block_table_
          : (built->block_table.empty() ? nullptr : &built->block_table);
  if (btab != nullptr && built->top_levels >= n_ &&
      tree().levels() > built->top_levels) {
    const std::uint32_t stride = n_ - k_;
    const std::uint32_t levels = tree().levels();
    built->r_of.resize(levels);
    built->root_of.resize(levels);
    built->pos_base.resize(levels);
    for (std::uint32_t j = k_; j < levels; ++j) {
      const std::uint32_t jb = (j - k_) / stride;
      built->r_of[j] = static_cast<std::uint8_t>(j - jb * stride);
      built->root_of[j] = static_cast<std::uint8_t>(jb * stride);
      built->pos_base[j] =
          static_cast<std::uint32_t>(pow2(built->r_of[j]) - 1);
    }
    built->steps.resize(btab->size());
    for (std::uint64_t pos = 0; pos < btab->size(); ++pos) {
      const Resolution res = (*btab)[pos];
      Step& s = built->steps[pos];
      if (res.from_gamma) {
        // Closed forms of gamma_node with level relative to jb*stride.
        const std::int8_t t = static_cast<std::int8_t>(res.value);
        const std::int8_t w = static_cast<std::int8_t>(stride);
        switch (variant_) {
          case internal::GammaVariant::kCorrect:
            s.dlevel = static_cast<std::int8_t>(t - w);
            s.rshift = static_cast<std::uint8_t>(w - t);
            break;
          case internal::GammaVariant::kIncludeChildRoot:
            s.dlevel = static_cast<std::int8_t>(1 + t - w);
            s.rshift = static_cast<std::uint8_t>(w - 1 - t);
            break;
          case internal::GammaVariant::kReversed:
            s.dlevel = static_cast<std::int8_t>(-1 - t);
            s.rshift = static_cast<std::uint8_t>(t + 1);
            break;
        }
      } else {
        // Closed form of subtree_node_at(Node{jb*stride, ib}, res.value).
        const std::uint32_t lvl = floor_log2(res.value + 1);
        s.dlevel = static_cast<std::int8_t>(lvl);
        s.lshift = static_cast<std::uint8_t>(lvl);
        s.add = static_cast<std::uint32_t>(res.value + 1 - pow2(lvl));
      }
    }
  }

  // Publish; on a race every thread builds the same immutable tables, and
  // whichever lands first wins.
  std::shared_ptr<const BatchAccel> expected;
  std::shared_ptr<const BatchAccel> desired = std::move(built);
  if (std::atomic_compare_exchange_strong_explicit(
          &accel_, &expected, desired, std::memory_order_acq_rel,
          std::memory_order_acquire)) {
    return *desired;
  }
  return *expected;
}

void ColorMapping::color_of_batch(std::span<const Node> nodes,
                                  std::span<Color> out) const {
  assert(out.size() >= nodes.size());
  if (nodes.empty()) return;
  const BatchAccel& acc = accel();

  // Whole tree above the horizon: pure table gather. BFS ids fit 32 bits
  // (top_levels is capped at 20), so the lookup vectorizes: materialize the
  // indices once, then one AVX2 gather sweep over the top table.
  if (acc.top_levels >= tree().levels()) {
    thread_local std::vector<std::uint32_t> ids;
    ids.resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      assert(tree().contains(nodes[i]));
      ids[i] = static_cast<std::uint32_t>(bfs_id(nodes[i]));
    }
    simd::gather_u32(acc.top_colors.data(), ids.data(), nodes.size(),
                     out.data());
    return;
  }

  const std::uint64_t Kval = K();
  const std::uint32_t stride = n_ - k_;  // > 0: nodes below the horizon exist
  const Resolution* btable = nullptr;
  if (retrieval_ == Retrieval::kBlockTable) {
    btable = block_table_.data();
  } else if (!acc.block_table.empty()) {
    btable = acc.block_table.data();
  }

  // Fast path: the top table covers at least one full block (top >= N), so
  // every chase provably bottoms out in a top-table lookup — a from-Gamma
  // step lands in the parent generation and a top-k step lands in the
  // block's shared levels, both strictly higher, and the jb == 0 exits sit
  // below level N <= top. The kernel then runs two phases: a branch-free
  // arithmetic chase — each jump is one precomposed Step lookup, no
  // data-dependent branch to mispredict — emitting terminal BFS ids, then
  // one tight gather loop whose independent loads into the 4 MiB top table
  // the CPU overlaps (memory-level parallelism the fused per-node loop
  // cannot extract).
  if (!acc.steps.empty()) {
    const std::uint8_t* r_of = acc.r_of.data();
    const std::uint8_t* root_of = acc.root_of.data();
    const std::uint32_t* pos_base = acc.pos_base.data();
    const Step* steps = acc.steps.data();
    const std::uint32_t top = acc.top_levels;

    thread_local std::vector<std::uint32_t> term;
    term.resize(nodes.size());

    for (std::size_t i = 0; i < nodes.size(); ++i) {
      assert(tree().contains(nodes[i]));
      std::uint32_t lvl = nodes[i].level;
      std::uint64_t idx = nodes[i].index;
      while (lvl >= top) {
        const std::uint32_t r = r_of[lvl];
        const std::uint64_t ib = idx >> r;
        const std::uint64_t irel = idx - (ib << r);
        const Step s = steps[pos_base[lvl] + irel];
        lvl = static_cast<std::uint32_t>(root_of[lvl] + s.dlevel);
        idx = ((ib >> s.rshift) << s.lshift) + s.add;
      }
      // Terminal BFS id: lvl < top <= 20, so it fits 32 bits and the
      // gather phase can run the AVX2 kernel.
      term[i] = static_cast<std::uint32_t>(pow2(lvl) - 1 + idx);
    }

    simd::gather_u32(acc.top_colors.data(), term.data(), nodes.size(),
                     out.data());
    return;
  }

  // Per-block Gamma memo: once a chase resolves Gamma entry t of the block
  // (memo_jb, memo_ib), later nodes of the same block reuse the color.
  // t < stride <= 59, so one word tracks validity and the array lives on
  // the stack — the kernel allocates nothing.
  constexpr std::uint32_t kNoPending = UINT32_MAX;
  Color gamma_memo[64];
  std::uint64_t gamma_valid = 0;
  std::uint32_t memo_jb = UINT32_MAX;
  std::uint64_t memo_ib = 0;

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    assert(tree().contains(nodes[i]));
    Node cur = nodes[i];
    Color c = 0;
    std::uint32_t pending_t = kNoPending;  // Gamma entry to memoize, if any
    bool own_block = true;  // first chase step = the node's own block
    while (true) {
      if (cur.level < k_) {  // Sigma phase: color = BFS id
        c = static_cast<Color>(bfs_id(cur));
        break;
      }
      if (cur.level < acc.top_levels) {
        c = acc.top_colors[bfs_id(cur)];
        break;
      }
      const std::uint32_t jb = (cur.level - k_) / stride;
      const std::uint32_t r = cur.level - jb * stride;
      const std::uint64_t ib = cur.index >> r;
      const std::uint64_t irel = cur.index - (ib << r);
      const Resolution res = btable != nullptr
                                 ? btable[pow2(r) - 1 + irel]
                                 : resolve_in_block(r, irel);
      if (res.from_gamma) {
        if (jb == 0) {
          c = static_cast<Color>(Kval + res.value);
          break;
        }
        if (own_block) {
          if (jb == memo_jb && ib == memo_ib) {
            if ((gamma_valid >> res.value) & 1u) {
              c = gamma_memo[res.value];
              break;
            }
          } else {
            memo_jb = jb;
            memo_ib = ib;
            gamma_valid = 0;
          }
          pending_t = res.value;
        }
        cur = gamma_node(ib, jb, res.value, stride, variant_);
      } else {
        if (jb == 0) {
          c = static_cast<Color>(res.value);
          break;
        }
        cur = subtree_node_at(Node{jb * stride, ib}, res.value);
      }
      own_block = false;
    }
    if (pending_t != kNoPending) {
      gamma_memo[pending_t] = c;
      gamma_valid |= std::uint64_t{1} << pending_t;
    }
    out[i] = c;
  }
}

std::vector<Color> ColorMapping::materialize() const {
  return materialize_prefix(tree().levels());
}

std::vector<Color> ColorMapping::materialize_prefix(std::uint32_t L) const {
  assert(L <= tree().levels());
  const std::uint64_t Kval = K();
  const std::uint64_t half_block = pow2(k_ - 1);
  std::vector<Color> col(tree_size(L));

  // Sigma phase: top k levels of the root block.
  const std::uint64_t sigma_nodes = tree_size(std::min(k_, L));
  for (std::uint64_t id = 0; id < sigma_nodes; ++id) {
    col[id] = static_cast<Color>(id);
  }

  // BOTTOM phase, level by level; every level j >= k belongs to exactly
  // one block generation jb with relative level r in [k, N-1].
  for (std::uint32_t j = k_; j < L; ++j) {
    const std::uint32_t stride = n_ - k_;
    const std::uint32_t jb = (j - k_) / stride;
    const std::uint32_t r = j - jb * stride;
    const std::uint64_t level_first = pow2(j) - 1;  // BFS id of v(0, j)
    for (std::uint64_t i = 0; i < pow2(j); ++i) {
      const std::uint64_t ib = i >> r;
      const std::uint64_t irel = i - (ib << r);
      const std::uint64_t h = irel >> (k_ - 1);
      const std::uint64_t p = irel & (half_block - 1);
      Color c;
      if (p == half_block - 1) {
        if (jb == 0) {
          c = static_cast<Color>(Kval + (r - k_));
        } else {
          c = col[bfs_id(gamma_node(ib, jb, r - k_, stride, variant_))];
        }
      } else {
        const std::uint64_t hs = h ^ 1;
        const std::uint32_t rho = floor_log2(p + 1);
        const std::uint64_t s = p + 1 - pow2(rho);
        const std::uint32_t rel_level = r - k_ + 1 + rho;
        const Node src{jb * stride + rel_level, (ib << rel_level) + (hs << rho) + s};
        c = col[bfs_id(src)];
      }
      col[level_first + i] = c;
    }
  }
  return col;
}

BasicColorMapping::BasicColorMapping(CompleteBinaryTree tree, std::uint32_t N,
                                     std::uint32_t k)
    : ColorMapping(tree, N, k) {
  if (tree.levels() > N) {
    throw std::invalid_argument("BASIC-COLOR colors a tree of at most N levels");
  }
}

std::string BasicColorMapping::name() const {
  return "BASIC-COLOR(N=" + std::to_string(N()) + ",K=" + std::to_string(K()) + ")";
}

EagerColorMapping::EagerColorMapping(const ColorMapping& base)
    : TreeMapping(base.tree()),
      table_(base.materialize()),
      modules_(base.num_modules()),
      base_name_(base.name()) {}

void EagerColorMapping::color_of_batch(std::span<const Node> nodes,
                                       std::span<Color> out) const {
  assert(out.size() >= nodes.size());
  // The AVX2 gather consumes indices as signed 32-bit lane offsets, so it
  // only applies while every BFS id fits 31 bits (trees up to 31 levels);
  // taller trees keep the scalar sweep.
  if (table_.size() < (std::uint64_t{1} << 31)) {
    thread_local std::vector<std::uint32_t> ids;
    ids.resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      ids[i] = static_cast<std::uint32_t>(bfs_id(nodes[i]));
    }
    simd::gather_u32(table_.data(), ids.data(), nodes.size(), out.data());
    return;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    out[i] = table_[bfs_id(nodes[i])];
  }
}

std::string EagerColorMapping::name() const { return base_name_ + "+table"; }

ColorMapping make_optimal_color_mapping(CompleteBinaryTree tree, std::uint32_t M) {
  // Largest 2^m - 1 <= M (m = 1 for M = 0). M < 3 gives k = 0, which
  // ColorMapping rejects.
  const std::uint32_t m = floor_log2(std::max<std::uint64_t>(M, 1) + 1);
  const std::uint32_t k = m - 1;                             // K = 2^{m-1} - 1
  const std::uint32_t N = static_cast<std::uint32_t>(pow2(m - 1)) + m - 1;  // N = 2^{m-1} + m - 1
  return ColorMapping(tree, N, k);
}

ColorMapping make_cf_mapping_for_modules(CompleteBinaryTree tree,
                                         std::uint32_t M, std::uint32_t k) {
  // N + K - k == M exactly. ColorMapping rejects the parameters no COLOR
  // has: k == 0 (K = 0, N = M), and an M too small for the tree, which
  // leaves N <= k or wraps N past 60.
  const auto K = static_cast<std::uint32_t>(pow2(k) - 1);
  const std::uint32_t N = M - K + k;
  return ColorMapping(tree, N, k);
}

}  // namespace pmtree
