// Real-memory module arenas (DESIGN.md §17): physical layout invariants
// (64-byte slab alignment, module-major BFS placement, stride rounding)
// on one-chunk trees and on trees the build splits into several chunks,
// the typed rejections of a placement color past the module count and of
// a region past size_t, touch() arithmetic and its
// commutative-aggregation contract, and the analytic checksum oracle.
#include "pmtree/mem/arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
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

/// The layout contract, read back from payload() addresses: each module's
/// slab starts 64-byte aligned at its lowest-BFS-id node and holds the
/// module's nodes at consecutive strides in BFS order, no two slabs
/// overlap, and every node's payload holds its fill.
void expect_layout_contract(const MemoryBackend& memory) {
  const CompleteBinaryTree tree = memory.tree();
  struct Slab {
    std::uintptr_t begin = 0, end = 0;
  };
  std::vector<Slab> slabs(memory.modules());
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    const Node n = node_at(id);
    Slab& s = slabs[memory.placement().color_of(n)];
    const auto addr = reinterpret_cast<std::uintptr_t>(memory.payload(n));
    if (s.end == 0) {
      ASSERT_EQ(addr % 64, 0u) << "id " << id;
      s.begin = addr;
      s.end = addr;
    }
    ASSERT_EQ(addr, s.end) << "id " << id;
    s.end += memory.stride_bytes();
    ASSERT_EQ(memory.touch({&n, 1}).checksum, memory.expected_node_checksum(n))
        << "id " << id;
  }
  std::uint64_t total = 0;
  for (const Slab& s : slabs) total += (s.end - s.begin) / memory.stride_bytes();
  EXPECT_EQ(total, tree.size());
  std::sort(slabs.begin(), slabs.end(),
            [](const Slab& a, const Slab& b) { return a.begin < b.begin; });
  for (std::size_t m = 1; m < slabs.size(); ++m) {
    EXPECT_LE(slabs[m - 1].end, slabs[m].begin) << "slab " << m;
  }
  EXPECT_EQ(memory.resident_bytes(), tree.size() * memory.stride_bytes());
}

// ---------------------------------------------------------------------------
// Physical layout.

TEST(MemoryBackend, SlabsAre64ByteAlignedAndSizedToTheirModules) {
  const CompleteBinaryTree tree(9);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 13));
  ArenaOptions opts;
  opts.payload_bytes = 24;  // a stride that is no multiple of 64
  expect_layout_contract(MemoryBackend(mapping, opts));
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
// The parallel build: 17 levels are two chunks of 2^16 BFS ids, the second
// one short of full.

TEST(MemoryBackend, MultiChunkBuildKeepsTheLayoutContract) {
  const CompleteBinaryTree tree(17);
  const ColorMapping color(make_optimal_color_mapping(tree, 15));
  const LabelTreeMapping label(tree, 11);
  const ModuloMapping modulo(tree, 7);
  for (const TreeMapping* placement :
       {static_cast<const TreeMapping*>(&color),
        static_cast<const TreeMapping*>(&label),
        static_cast<const TreeMapping*>(&modulo)}) {
    SCOPED_TRACE(placement->name());
    ArenaOptions opts;
    opts.payload_bytes = 24;
    expect_layout_contract(MemoryBackend(*placement, opts));
  }
}

TEST(MemoryBackend, BackendsOverOnePlacementAgreeOnEveryOffset) {
  const CompleteBinaryTree tree(17);
  const LabelTreeMapping mapping(tree, 11);
  const MemoryBackend a(mapping);
  const MemoryBackend b(mapping);
  const std::uint64_t* a_root = a.payload(tree.root());
  const std::uint64_t* b_root = b.payload(tree.root());
  for (std::uint64_t id = 0; id < tree.size(); ++id) {
    const Node n = node_at(id);
    ASSERT_EQ(a.payload(n) - a_root, b.payload(n) - b_root) << "id " << id;
  }
}

/// A placement over `tree` that reports `modules` modules and colors
/// BFS id `stray_id` with module `stray`, every other node with its BFS
/// id mod `modules`. It counts the nodes it colors.
class StrayColorMapping final : public TreeMapping {
 public:
  StrayColorMapping(CompleteBinaryTree tree, std::uint32_t modules,
                    std::uint64_t stray_id, Color stray)
      : TreeMapping(tree), modules_(modules), stray_id_(stray_id),
        stray_(stray) {}

  [[nodiscard]] Color color_of(Node n) const override {
    colored.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t id = bfs_id(n);
    if (id == stray_id_ || modules_ == 0) return stray_;
    return static_cast<Color>(id % modules_);
  }
  [[nodiscard]] std::uint32_t num_modules() const noexcept override {
    return modules_;
  }
  [[nodiscard]] std::string name() const override { return "stray"; }

  mutable std::atomic<std::uint64_t> colored{0};

 private:
  std::uint32_t modules_;
  std::uint64_t stray_id_;
  Color stray_;
};

TEST(MemoryBackend, ColorPastTheModuleCountIsRejected) {
  // In the one chunk of a small tree, and in the last chunk of a 17-level
  // one, after a first chunk that builds cleanly.
  for (const std::uint32_t levels : {6u, 17u}) {
    const CompleteBinaryTree tree(levels);
    SCOPED_TRACE("levels=" + std::to_string(levels));
    for (const Color stray : {Color{5}, Color{6}, ~Color{0}}) {
      const StrayColorMapping mapping(tree, 5, tree.size() - 1, stray);
      EXPECT_THROW(MemoryBackend{mapping}, std::invalid_argument) << stray;
    }
    const StrayColorMapping in_range(tree, 5, tree.size() - 1, 4);
    expect_layout_contract(MemoryBackend(in_range));
    // No module at all: every color is past the count.
    const StrayColorMapping none(tree, 0, 0, 0);
    EXPECT_THROW(MemoryBackend{none}, std::invalid_argument);
  }
}

TEST(MemoryBackend, RegionPastSizeTIsRejectedBeforeAnyColoring) {
  // 2^60 - 1 nodes of one cache line each need 2^66 bytes.
  const StrayColorMapping mapping(CompleteBinaryTree(60), 3, 0, 0);
  EXPECT_THROW(MemoryBackend{mapping}, std::length_error);
  ArenaOptions widest;
  widest.payload_bytes = ~std::uint32_t{0};
  const StrayColorMapping deep(CompleteBinaryTree(33), 3, 0, 0);
  EXPECT_THROW((MemoryBackend{deep, widest}), std::length_error);
  EXPECT_EQ(mapping.colored.load(), 0u);
  EXPECT_EQ(deep.colored.load(), 0u);
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
