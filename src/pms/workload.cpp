#include "pmtree/pms/workload.hpp"

#include <algorithm>

#include "pmtree/templates/range_cover.hpp"
#include "pmtree/templates/sampler.hpp"
#include "pmtree/util/bits.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree {

Workload Workload::subtrees(const CompleteBinaryTree& tree, std::uint64_t K,
                            std::size_t count, std::uint64_t seed) {
  // No size-K subtree exists unless K = 2^t - 1; sample_subtree throws
  // on other sizes, so map them to the empty workload here instead
  // (oversized-but-valid K is handled by the sampler).
  if (!is_tree_size(K)) return Workload{};
  Rng rng(seed);
  std::vector<Access> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (auto inst = sample_subtree(tree, K, rng)) out.push_back(inst->nodes());
  }
  return Workload(std::move(out));
}

Workload Workload::paths(const CompleteBinaryTree& tree, std::uint64_t K,
                         std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Access> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (auto inst = sample_path(tree, K, rng)) out.push_back(inst->nodes());
  }
  return Workload(std::move(out));
}

Workload Workload::level_runs(const CompleteBinaryTree& tree, std::uint64_t K,
                              std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Access> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (auto inst = sample_level_run(tree, K, rng)) out.push_back(inst->nodes());
  }
  return Workload(std::move(out));
}

Workload Workload::mixed(const CompleteBinaryTree& tree, std::uint64_t K,
                         std::size_t count, std::uint64_t seed) {
  if (K == 0) return Workload{};  // every component kind would be empty
  Rng rng(seed);
  std::vector<Access> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    switch (rng.below(3)) {
      case 0: {
        // Round the subtree size down to a valid 2^t - 1.
        const std::uint64_t s = pow2(floor_log2(K + 1)) - 1;
        if (auto inst = sample_subtree(tree, s, rng)) out.push_back(inst->nodes());
        break;
      }
      case 1: {
        const std::uint64_t s = std::min<std::uint64_t>(K, tree.levels());
        if (auto inst = sample_path(tree, s, rng)) out.push_back(inst->nodes());
        break;
      }
      default: {
        if (auto inst = sample_level_run(tree, K, rng)) out.push_back(inst->nodes());
        break;
      }
    }
  }
  return Workload(std::move(out));
}

Workload Workload::composites(const CompleteBinaryTree& tree, std::uint64_t D,
                              std::uint64_t c, std::size_t count,
                              std::uint64_t seed) {
  Rng rng(seed);
  CompositeSpec spec;
  spec.total_size = D;
  spec.components = c;
  std::vector<Access> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (auto inst = sample_composite(tree, spec, rng)) {
      out.push_back(inst->nodes());
    }
  }
  return Workload(std::move(out));
}

Workload Workload::range_queries(const CompleteBinaryTree& tree,
                                 std::uint64_t max_width, std::size_t count,
                                 std::uint64_t seed) {
  if (max_width == 0) return Workload{};  // no leaf interval to cover
  Rng rng(seed);
  const std::uint64_t leaves = tree.num_leaves();
  std::vector<Access> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t width = rng.between(1, std::min(max_width, leaves));
    const std::uint64_t lo = rng.below(leaves - width + 1);
    out.push_back(range_query_template(tree, lo, lo + width - 1).nodes());
  }
  return Workload(std::move(out));
}

}  // namespace pmtree
