// Seeded open-loop request streams. Every request carries the submit cycle
// the generator assigned it, whether or not the system keeps up; the
// program only ever sees these generated requests.
#pragma once

#include <cstdint>
#include <vector>

#include "pmtree/mapping/mapping.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/tree/node.hpp"
#include "pmtree/tree/tree.hpp"

namespace e2e {

/// Arrival process: gaps uniform on [0, 2*mean_gap] (mean ~= mean_gap
/// cycles), plus a flash crowd every `burst_every` requests — `burst_size`
/// requests submitted in the same cycle. The crowds exceed the admission
/// queue bound, so a steady, seed-insensitive share of every stream is
/// shed even though the mean load is below saturation.
struct Arrivals {
  std::uint64_t mean_gap = 4;
  std::size_t burst_every = 0;  ///< 0 = no flash crowds
  std::size_t burst_size = 0;
};

/// E19's mix on a tall tree: 70% root-to-leaf paths over uniform leaves,
/// 20% sibling pairs at the bottom, 10% short level runs (4-8 nodes one
/// level above the leaves).
[[nodiscard]] std::vector<pmtree::serve::Request> paths_mix_stream(
    const pmtree::CompleteBinaryTree& tree, std::size_t count,
    std::uint32_t clients, const Arrivals& arrivals, std::uint64_t seed);

/// E24's read-write mix over a dynamic tree's envelope: 60% root-to-leaf
/// envelope path reads, 25% inserts and 15% erases whose targets sit in
/// levels 1..write_levels; writers carry their root path as the read set.
[[nodiscard]] std::vector<pmtree::serve::Request> churn_stream(
    std::uint32_t levels, std::uint32_t write_levels, std::size_t count,
    std::uint32_t clients, const Arrivals& arrivals, std::uint64_t seed);

/// Bottom-level leaves sharing one color under `mapping`, `per_subtree`
/// of them from each of up to `subtrees` distinct level-`subtree_level`
/// subtrees — E23's adversarial hot set for skew migration.
[[nodiscard]] std::vector<std::vector<pmtree::Node>> hot_leaves(
    const pmtree::TreeMapping& mapping, std::uint32_t subtree_level,
    std::size_t subtrees, std::size_t per_subtree);

/// E23's hot-spot Zipf stream: 80% of requests read 3 leaves of one hot
/// subtree (subtree s with weight 1/(s+1)), 20% root-to-leaf paths.
[[nodiscard]] std::vector<pmtree::serve::Request> hot_spot_stream(
    const pmtree::CompleteBinaryTree& tree,
    const std::vector<std::vector<pmtree::Node>>& hot, std::size_t count,
    std::uint32_t clients, const Arrivals& arrivals, std::uint64_t seed);

/// Bottom-level nodes that share one color under `by`.
[[nodiscard]] std::vector<pmtree::Node> monochrome_under(
    const pmtree::TreeMapping& by);

/// E25's adaptive stream: 80% of requests read 3 nodes of `hot` (a set
/// monochrome under the tenant's base mapping), 20% scattered pairs.
[[nodiscard]] std::vector<pmtree::serve::Request> monochrome_stream(
    const pmtree::CompleteBinaryTree& tree,
    const std::vector<pmtree::Node>& hot, std::size_t count,
    std::uint32_t clients, const Arrivals& arrivals, std::uint64_t seed);

/// Level-run scans: runs of 4..16 consecutive nodes on a random level in
/// [min_level, bottom], each request carrying `deadline` cycles of budget.
[[nodiscard]] std::vector<pmtree::serve::Request> range_scan_stream(
    const pmtree::CompleteBinaryTree& tree, std::uint32_t min_level,
    std::size_t count, std::uint32_t clients, const Arrivals& arrivals,
    std::uint64_t deadline, std::uint64_t seed);

}  // namespace e2e
