#include "pmtree/analysis/verify.hpp"

#include <algorithm>

#include "pmtree/analysis/bounds.hpp"
#include "pmtree/analysis/cost.hpp"
#include "pmtree/templates/enumerate.hpp"
#include "pmtree/util/bits.hpp"

namespace pmtree {

namespace {

std::string describe_witness(const std::vector<Node>& nodes,
                             const TreeMapping& mapping) {
  std::string out = "witness:";
  for (const Node& n : nodes) {
    out += ' ' + to_string(n) + "->" + std::to_string(mapping.color_of(n));
  }
  return out;
}

}  // namespace

Verdict verify_cf_elementary(const TreeMapping& mapping, std::uint64_t K,
                             std::uint32_t N) {
  Verdict verdict;
  verdict.bound = 0;
  const FamilyCost s = evaluate_subtrees(mapping, K);
  const FamilyCost p = evaluate_paths(mapping, N);
  verdict.measured = std::max(s.max_conflicts, p.max_conflicts);
  verdict.ok = verdict.measured == 0;
  if (!verdict.ok) {
    const FamilyCost& bad = s.max_conflicts > 0 ? s : p;
    verdict.detail = describe_witness(bad.witness, mapping);
  }
  return verdict;
}

Verdict verify_tp_rainbow(const TreeMapping& mapping, std::uint64_t K,
                          std::uint32_t N) {
  Verdict verdict;
  verdict.bound = 0;
  // Within a single block (tree no taller than N) Lemma 1 covers every
  // j <= N, the deepest anchors with truncated subtrees. In a multi-block
  // tree the root-path TP invariant only holds while the anchor's subtree
  // stays inside the root block: anchor level <= N - k (deeper subtrees
  // reach into child blocks, whose Gamma lists deliberately reuse
  // root-path colors below the paths' CF horizon).
  const std::uint32_t k = tree_levels(K);
  const std::uint32_t levels = mapping.tree().levels();
  const std::uint32_t j_max =
      levels <= N ? std::min(levels, N) : std::min(levels, N - k + 1);
  // TP_K(., j) is the TP index range [2^{j-1} - 1, 2^j - 1), so j = 1..j_max
  // is the prefix [0, 2^{j_max} - 1).
  const std::uint64_t end = pow2(j_max) - 1;
  for (std::uint64_t i = 0; i < end; ++i) {
    const auto nodes = tp_at(mapping.tree(), K, i).nodes();
    const std::uint64_t cost = conflicts(mapping, nodes);
    if (cost > verdict.measured) {
      verdict.measured = cost;
      verdict.detail = describe_witness(nodes, mapping);
    }
  }
  verdict.ok = verdict.measured == 0;
  if (verdict.ok) verdict.detail.clear();
  return verdict;
}

Verdict verify_optimality_witness(const TreeMapping& mapping, std::uint32_t N,
                                  std::uint32_t k) {
  Verdict verdict;
  verdict.bound = bounds::cf_modules(N, k);
  const std::uint64_t K = tree_size(k);
  const auto& tree = mapping.tree();
  // The witness family anchors at level N - k: the root path there has
  // N - k nodes above the anchor and the size-K subtree below it reaches
  // level N - 1, so |TP| = (N - k) + K = N + K - k exactly (Theorem 2).
  if (N <= k || N > tree.levels()) {  // anchor level N - k in [1, levels - k]
    verdict.detail = "tree too small to host TP(K, N-k)";
    return verdict;
  }
  // The anchors of level N - k are the TP indices [2^{N-k} - 1, 2^{N-k+1} - 1).
  const std::uint64_t first = pow2(N - k) - 1;
  const std::uint64_t end = pow2(N - k + 1) - 1;
  bool sizes_ok = true;
  bool rainbow = true;
  std::string detail;
  for (std::uint64_t i = first; i < end; ++i) {
    const auto nodes = tp_at(tree, K, i).nodes();
    if (nodes.size() != verdict.bound) {
      sizes_ok = false;
      detail = "TP instance has " + std::to_string(nodes.size()) +
               " nodes, expected " + std::to_string(verdict.bound);
      break;
    }
    if (conflicts(mapping, nodes) != 0) {
      rainbow = false;
      detail = describe_witness(nodes, mapping);
      break;
    }
  }
  verdict.ok = sizes_ok && rainbow;
  verdict.measured = verdict.ok ? verdict.bound : 0;
  verdict.detail = std::move(detail);
  return verdict;
}

Verdict verify_full_parallelism(const TreeMapping& mapping) {
  Verdict verdict;
  verdict.bound = bounds::kOptimalFullParallelismCost;
  const std::uint64_t M = mapping.num_modules();
  const FamilyCost s = evaluate_subtrees(mapping, M);
  const FamilyCost p = evaluate_paths(mapping, M);
  verdict.measured = std::max(s.max_conflicts, p.max_conflicts);
  verdict.ok = verdict.measured <= verdict.bound;
  if (!verdict.ok) {
    const FamilyCost& bad =
        s.max_conflicts >= p.max_conflicts ? s : p;
    verdict.detail = describe_witness(bad.witness, mapping);
  }
  return verdict;
}

Verdict verify_level_cost(const TreeMapping& mapping, std::uint64_t K,
                          std::uint64_t bound) {
  Verdict verdict;
  verdict.bound = bound;
  const FamilyCost l = evaluate_level_runs(mapping, K);
  verdict.measured = l.max_conflicts;
  verdict.ok = verdict.measured <= bound;
  if (!verdict.ok) verdict.detail = describe_witness(l.witness, mapping);
  return verdict;
}

}  // namespace pmtree
