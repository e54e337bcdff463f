// Conflict-cost evaluation (Section 2 of the paper).
//
// For a mapping U and a template instance I, the cost is
//
//     C_U(T, I, M) = max_color |{ u in I : color(u) = color }| - 1,
//
// i.e. the number of *extra* accesses the busiest module receives; a
// conflict-free access has cost 0 and an instance of size D needs exactly
// cost+1 serialized memory rounds. The cost of a template *family* is the
// maximum over its instances; evaluate_* computes it exhaustively (used by
// the theorem tests on moderate trees) and sample_* estimates it by random
// sampling (used by benches on big trees). Both go through the family's
// one definition in templates/enumerate.hpp: evaluate_* scans instance
// indices [0, count_*) with the indexed accessors, and sample_* draws
// through the samplers, which call the same accessors. A family of 4,096
// instances or more is scanned on every hardware thread, a smaller one on
// the calling thread; the result, witness included, is the sequential
// scan's either way (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pmtree/mapping/mapping.hpp"
#include "pmtree/templates/instance.hpp"
#include "pmtree/tree/node.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree {

/// Conflicts of a single access set: (max color multiplicity) - 1.
/// Empty sets cost 0. Allocation-free: colors go through the mapping's
/// batch kernel into thread-local scratch.
[[nodiscard]] std::uint64_t conflicts(const TreeMapping& mapping,
                                      std::span<const Node> nodes);

/// Serialized memory rounds to serve the access: conflicts + 1 (0 if empty).
[[nodiscard]] std::uint64_t rounds(const TreeMapping& mapping,
                                   std::span<const Node> nodes);

/// Summary of a family evaluation.
struct FamilyCost {
  std::uint64_t max_conflicts = 0;   ///< Cost(U, family, M)
  double mean_conflicts = 0.0;
  std::uint64_t instances = 0;       ///< instances evaluated
  /// One instance achieving max_conflicts (first found), as its node set.
  std::vector<Node> witness;
};

/// Exhaustive Cost(U, S(K), M) over every size-K subtree of U's tree.
[[nodiscard]] FamilyCost evaluate_subtrees(const TreeMapping& mapping,
                                           std::uint64_t K);

/// Exhaustive Cost(U, L(K), M).
[[nodiscard]] FamilyCost evaluate_level_runs(const TreeMapping& mapping,
                                             std::uint64_t K);

/// Exhaustive Cost(U, P(K), M).
[[nodiscard]] FamilyCost evaluate_paths(const TreeMapping& mapping,
                                        std::uint64_t K);

/// Sampled cost estimates (max over `samples` random instances). Instances
/// are drawn sequentially from `rng` (the stream is identical to a fully
/// sequential run), then evaluated with the same parallel reduction as
/// evaluate_*.
[[nodiscard]] FamilyCost sample_subtrees(const TreeMapping& mapping,
                                         std::uint64_t K, std::uint64_t samples,
                                         Rng& rng);
[[nodiscard]] FamilyCost sample_level_runs(const TreeMapping& mapping,
                                           std::uint64_t K, std::uint64_t samples,
                                           Rng& rng);
[[nodiscard]] FamilyCost sample_paths(const TreeMapping& mapping, std::uint64_t K,
                                      std::uint64_t samples, Rng& rng);

/// Sampled cost over composite templates C(D, c).
[[nodiscard]] FamilyCost sample_composites(const TreeMapping& mapping,
                                           std::uint64_t D, std::uint64_t c,
                                           std::uint64_t samples, Rng& rng);

}  // namespace pmtree
