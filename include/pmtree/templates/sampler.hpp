// Random sampling of template instances for large trees, where exhaustive
// enumeration is intractable. Used by benches (sampled-maximum conflict
// estimation) and by workload generators.
//
// All samplers draw uniformly over the instance family of the requested
// size, using the deterministic pmtree::Rng so runs are reproducible. An
// elementary sampler is one draw through its family's definition
// (enumerate.hpp): `*_at(tree, K, rng.below(count_*(tree, K)))`, so a
// sample is always an instance the exhaustive scans visit. An empty family
// returns nullopt without consuming the stream.
#pragma once

#include <cstdint>
#include <optional>

#include "pmtree/templates/instance.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree {

/// Uniform random S_K instance. Returns nullopt if none fits; throws
/// std::invalid_argument unless K = 2^k - 1.
[[nodiscard]] std::optional<SubtreeInstance> sample_subtree(
    const CompleteBinaryTree& tree, std::uint64_t K, Rng& rng);

/// Uniform random L_K instance. Returns nullopt if K == 0 or none fits.
[[nodiscard]] std::optional<LevelRunInstance> sample_level_run(
    const CompleteBinaryTree& tree, std::uint64_t K, Rng& rng);

/// Uniform random P_K instance. Returns nullopt if K == 0 or none fits.
[[nodiscard]] std::optional<PathInstance> sample_path(
    const CompleteBinaryTree& tree, std::uint64_t K, Rng& rng);

/// Controls for sample_composite.
struct CompositeSpec {
  std::uint64_t total_size = 0;     ///< D: target total node count
  std::uint64_t components = 1;     ///< c: number of elementary components
  bool allow_subtrees = true;
  bool allow_level_runs = true;
  bool allow_paths = true;
};

/// Samples a C(D, c) instance: c pairwise-disjoint elementary instances
/// totalling (approximately, then exactly by trimming the last level-run /
/// path component) D nodes. Retries until disjointness holds; returns
/// nullopt if the tree is too small to host the request.
[[nodiscard]] std::optional<CompositeInstance> sample_composite(
    const CompleteBinaryTree& tree, const CompositeSpec& spec, Rng& rng);

}  // namespace pmtree
