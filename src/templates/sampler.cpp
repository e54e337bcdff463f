#include "pmtree/templates/sampler.hpp"

#include <algorithm>
#include <set>

#include "pmtree/templates/enumerate.hpp"
#include "pmtree/util/bits.hpp"

namespace pmtree {

std::optional<SubtreeInstance> sample_subtree(const CompleteBinaryTree& tree,
                                              std::uint64_t K, Rng& rng) {
  const std::uint64_t count = count_subtrees(tree, K);
  if (count == 0) return std::nullopt;
  return subtree_at(tree, K, rng.below(count));
}

std::optional<LevelRunInstance> sample_level_run(const CompleteBinaryTree& tree,
                                                 std::uint64_t K, Rng& rng) {
  if (K == 0) return std::nullopt;
  const std::uint64_t count = count_level_runs(tree, K);
  if (count == 0) return std::nullopt;
  return level_run_at(tree, K, rng.below(count));
}

std::optional<PathInstance> sample_path(const CompleteBinaryTree& tree,
                                        std::uint64_t K, Rng& rng) {
  if (K == 0) return std::nullopt;
  const std::uint64_t count = count_paths(tree, K);
  if (count == 0) return std::nullopt;
  return path_at(tree, K, rng.below(count));
}

namespace {

/// Largest valid subtree size (2^t - 1) that is <= cap, or 0 if cap == 0.
std::uint64_t largest_tree_size_below(std::uint64_t cap) {
  if (cap == 0) return 0;
  return pow2(floor_log2(cap + 1)) - 1;
}

}  // namespace

std::optional<CompositeInstance> sample_composite(const CompleteBinaryTree& tree,
                                                  const CompositeSpec& spec,
                                                  Rng& rng) {
  const std::uint64_t D = spec.total_size;
  const std::uint64_t c = spec.components;
  if (c == 0 || D < c) return std::nullopt;
  if (!spec.allow_subtrees && !spec.allow_level_runs && !spec.allow_paths) {
    return std::nullopt;
  }
  if (D > tree.size() / 2) return std::nullopt;  // keep rejection viable

  for (int attempt = 0; attempt < 64; ++attempt) {
    // Random composition of D into c parts, each >= 1.
    std::vector<std::uint64_t> sizes(c, 1);
    for (std::uint64_t unit = 0; unit < D - c; ++unit) {
      sizes[rng.below(c)] += 1;
    }

    // Components are sampled one at a time with per-component rejection
    // against the nodes already claimed — long paths, in particular, tend
    // to collide near the root, and resampling only the offender converges
    // where whole-instance rejection starves.
    std::set<std::uint64_t> used;
    CompositeInstance composite;
    std::uint64_t carry = 0;  // size shaved off subtree/path components
    bool ok = true;

    auto try_add = [&](const ElementaryInstance& inst) {
      const auto nodes = inst.nodes();
      for (const Node& n : nodes) {
        if (used.count(bfs_id(n)) != 0) return false;
      }
      for (const Node& n : nodes) used.insert(bfs_id(n));
      composite.add(inst);
      return true;
    };

    for (std::uint64_t part = 0; part < c && ok; ++part) {
      std::uint64_t want = sizes[part] + carry;
      carry = 0;
      // The final component absorbs any carry exactly, so prefer an
      // arbitrary-size kind (level run, then path) for it.
      std::vector<TemplateKind> kinds;
      if (spec.allow_subtrees) kinds.push_back(TemplateKind::kSubtree);
      if (spec.allow_level_runs) kinds.push_back(TemplateKind::kLevelRun);
      if (spec.allow_paths) kinds.push_back(TemplateKind::kPath);
      TemplateKind kind = kinds[rng.below(kinds.size())];
      if (part + 1 == c && spec.allow_level_runs) kind = TemplateKind::kLevelRun;

      bool placed = false;
      for (int retry = 0; retry < 64 && !placed; ++retry) {
        switch (kind) {
          case TemplateKind::kSubtree: {
            std::uint64_t s = largest_tree_size_below(want);
            s = std::min<std::uint64_t>(s, tree.size());
            if (s == 0) break;
            if (auto inst = sample_subtree(tree, s, rng);
                inst && try_add(*inst)) {
              carry = want - s;
              placed = true;
            }
            break;
          }
          case TemplateKind::kPath: {
            const std::uint64_t s = std::min<std::uint64_t>(want, tree.levels());
            if (auto inst = sample_path(tree, s, rng); inst && try_add(*inst)) {
              carry = want - s;
              placed = true;
            }
            break;
          }
          case TemplateKind::kLevelRun: {
            const std::uint64_t s = std::min(want, tree.num_leaves());
            if (auto inst = sample_level_run(tree, s, rng);
                inst && try_add(*inst)) {
              carry = want - s;
              placed = true;
            }
            break;
          }
        }
      }
      ok = placed;
    }
    if (!ok || carry != 0) continue;
    if (composite.size() != D || composite.component_count() != c) continue;
    return composite;
  }
  return std::nullopt;
}

}  // namespace pmtree
