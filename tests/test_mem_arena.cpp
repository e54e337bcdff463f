// Real-memory module arenas (DESIGN.md §17): physical layout invariants
// (64-byte slab alignment, module-major BFS placement, stride rounding),
// touch() arithmetic and its commutative-aggregation contract, and the
// analytic checksum oracle.
#include "pmtree/mem/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree::mem {
namespace {

std::vector<Node> all_nodes(const CompleteBinaryTree& tree) {
  std::vector<Node> nodes;
  nodes.reserve(tree.size());
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    nodes.push_back(node_at(id));
  }
  return nodes;
}

/// Where a node lives, read back from payload() addresses: the module its
/// placement color names and its slot, in strides, past the payload of
/// the module's lowest-BFS-id node.
struct Where {
  Color module = 0;
  std::int64_t slot = 0;
  friend bool operator==(const Where&, const Where&) = default;
};

std::vector<Where> layout(const MemoryBackend& memory) {
  const CompleteBinaryTree tree = memory.tree();
  const auto lanes = static_cast<std::int64_t>(memory.stride_bytes() / 8);
  std::vector<const std::uint64_t*> first(memory.modules(), nullptr);
  std::vector<Where> where;
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    const Node n = node_at(id);
    const Color m = memory.placement().color_of(n);
    if (first[m] == nullptr) first[m] = memory.payload(n);
    where.push_back(Where{m, (memory.payload(n) - first[m]) / lanes});
  }
  return where;
}

// ---------------------------------------------------------------------------
// Physical layout.

TEST(MemoryBackend, SlabsAre64ByteAlignedAndSizedToTheirModules) {
  const CompleteBinaryTree tree(9);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 13));
  ArenaOptions opts;
  opts.payload_bytes = 24;  // a stride that is no multiple of 64
  const MemoryBackend memory(mapping, opts);

  // Each module's slab starts 64-byte aligned at its lowest-BFS-id node
  // and spans one stride per node of the module; no two slabs overlap.
  struct Slab {
    std::uintptr_t begin = 0, end = 0;
  };
  std::vector<Slab> slabs(memory.modules());
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    const Node n = node_at(id);
    Slab& s = slabs[mapping.color_of(n)];
    const auto addr = reinterpret_cast<std::uintptr_t>(memory.payload(n));
    if (s.end == 0) {
      EXPECT_EQ(addr % 64, 0u) << "id " << id;
      s.begin = addr;
      s.end = addr;
    }
    ASSERT_EQ(addr, s.end) << "id " << id;
    s.end += memory.stride_bytes();
  }
  std::uint64_t total = 0;
  for (Color a = 0; a < memory.modules(); ++a) {
    total += (slabs[a].end - slabs[a].begin) / memory.stride_bytes();
    for (Color b = a + 1; b < memory.modules(); ++b) {
      EXPECT_TRUE(slabs[a].end <= slabs[b].begin ||
                  slabs[b].end <= slabs[a].begin)
          << "modules " << a << " and " << b;
    }
  }
  EXPECT_EQ(total, tree.size());
  EXPECT_EQ(memory.resident_bytes(), tree.size() * memory.stride_bytes());
}

TEST(MemoryBackend, PlacementIsModuleMajorInBfsOrder) {
  const CompleteBinaryTree tree(8);
  const LabelTreeMapping mapping(tree, 11);
  const MemoryBackend memory(mapping);

  // Every node lives in the slab its placement color names, at the slot
  // equal to the count of lower-BFS-id nodes of the same color.
  EXPECT_EQ(&memory.placement(), static_cast<const TreeMapping*>(&mapping));
  const std::vector<Where> where = layout(memory);
  std::vector<std::int64_t> next_slot(memory.modules(), 0);
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    const Color m = mapping.color_of(node_at(id));
    ASSERT_EQ(where[id], (Where{m, next_slot[m]})) << "id " << id;
    next_slot[m] += 1;
  }
}

TEST(MemoryBackend, StrideRoundsPayloadUpToWholeLanes) {
  const CompleteBinaryTree tree(4);
  const ModuloMapping mapping(tree, 3);
  struct Case {
    std::uint32_t payload;
    std::uint32_t stride;
  };
  for (const Case c : {Case{1, 8}, Case{8, 8}, Case{12, 16}, Case{64, 64},
                       Case{65, 72}, Case{0, 8}}) {
    ArenaOptions opts;
    opts.payload_bytes = c.payload;
    const MemoryBackend memory(mapping, opts);
    EXPECT_EQ(memory.stride_bytes(), c.stride) << "payload " << c.payload;
  }
}

TEST(MemoryBackend, TwoPlacementsOfTheSameTreeLayOutDifferently) {
  const CompleteBinaryTree tree(9);
  const ColorMapping color(make_optimal_color_mapping(tree, 13));
  const LabelTreeMapping label(tree, 13);
  const MemoryBackend a(color);
  const MemoryBackend b(label);

  // The layout IS the mapping: some node must land in another module or
  // at another slot.
  EXPECT_NE(layout(a), layout(b));
}

// ---------------------------------------------------------------------------
// touch(): arithmetic, commutativity, and the analytic checksum oracle.

TEST(MemoryBackend, TouchCountsNodesAndBytesIncludingDuplicates) {
  const CompleteBinaryTree tree(6);
  const ModuloMapping mapping(tree, 5);
  ArenaOptions opts;
  opts.payload_bytes = 24;
  const MemoryBackend memory(mapping, opts);

  const std::vector<Node> nodes = {v(0, 0), v(1, 2), v(1, 2), v(3, 5)};
  const TouchStats stats = memory.touch(nodes);
  EXPECT_EQ(stats.nodes, 4u);
  EXPECT_EQ(stats.bytes, 4u * memory.stride_bytes());
  // Duplicates are read once each: the pair's folds add twice.
  const TouchStats one = memory.touch(std::vector<Node>{v(1, 2)});
  const TouchStats rest =
      memory.touch(std::vector<Node>{v(0, 0), v(3, 5)});
  EXPECT_EQ(stats.checksum, one.checksum * 2 + rest.checksum);

  EXPECT_EQ(memory.touch(std::span<const Node>{}).nodes, 0u);
}

TEST(MemoryBackend, ChecksumMatchesTheAnalyticExpectation) {
  const CompleteBinaryTree tree(8);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 7));
  ArenaOptions opts;
  opts.payload_bytes = 40;
  const MemoryBackend memory(mapping, opts);

  for (std::uint64_t id = 0; id < tree.size(); id += 17) {
    const Node n = node_at(id);
    EXPECT_EQ(memory.touch(std::vector<Node>{n}).checksum,
              memory.expected_node_checksum(n))
        << "id " << id;
  }
}

TEST(MemoryBackend, AggregationIsOrderAndPartitionInvariant) {
  const CompleteBinaryTree tree(9);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 13));
  const MemoryBackend memory(mapping);

  std::vector<Node> nodes = all_nodes(tree);
  const TouchStats whole = memory.touch(nodes);

  // Reversed order, then random batch partition: identical totals.
  std::vector<Node> reversed(nodes.rbegin(), nodes.rend());
  EXPECT_EQ(memory.touch(reversed), whole);

  Rng rng(0x9A9);
  TouchStats pieces;
  std::size_t at = 0;
  while (at < nodes.size()) {
    const std::size_t len =
        std::min(nodes.size() - at, 1 + rng.below(97));
    pieces += memory.touch(
        std::span<const Node>(nodes.data() + at, len));
    at += len;
  }
  EXPECT_EQ(pieces, whole);
}

TEST(MemoryBackend, LogicalDataIsPlacementIndependent) {
  // The fill is keyed by BFS id, not by physical slot: re-placing the
  // same tree under a different mapping must preserve every node's
  // payload, so touch totals agree byte for byte.
  const CompleteBinaryTree tree(9);
  const ColorMapping color(make_optimal_color_mapping(tree, 13));
  const LabelTreeMapping label(tree, 13);
  const MemoryBackend a(color);
  const MemoryBackend b(label);

  const std::vector<Node> nodes = all_nodes(tree);
  EXPECT_EQ(a.touch(nodes), b.touch(nodes));
}

TEST(MemoryBackend, StatsEchoLayoutAndTouchTotals) {
  const CompleteBinaryTree tree(6);
  const ModuloMapping mapping(tree, 5);
  const MemoryBackend memory(mapping);
  const TouchStats touched = memory.touch(all_nodes(tree));
  const Json j = memory.stats(touched);
  EXPECT_EQ(j.find("placement")->as_string(), mapping.name());
  EXPECT_EQ(j.find("modules")->as_uint(), 5u);
  EXPECT_EQ(j.find("touched")->find("nodes")->as_uint(), tree.size());
  EXPECT_EQ(j.find("touched")->find("checksum")->as_string(),
            detail::hex64(touched.checksum));
}

}  // namespace
}  // namespace pmtree::mem
