// Real per-module memory arenas (DESIGN.md §17).
//
// Everything below the serve layer prices a parallel access in simulated
// cycles: modules are counters, "load" is a histogram bucket, and no byte
// of node data is ever read. That is the right abstraction for the
// paper's combinatorics, but it cannot answer the systems half of the R10
// trade-off — how COLOR's and LABEL-TREE's placements behave under real
// bandwidth and real cache hierarchies. pmtree::mem closes that gap:
//
//   MemoryBackend — one slab per module, holding the actual payload of
//     every node the placement mapping assigns to that module. Placement
//     is module-major: a module's nodes occupy consecutive slots in BFS
//     order, so the physical layout IS the mapping — two mappings of the
//     same tree produce materially different memory layouts, and a
//     batch's locality (how many slabs it straddles, how its reads stride
//     within one) is measurable instead of notional. (Demaine et al.'s
//     worst-case external-memory tree layouts motivate block-size-aware
//     placement; the bp-forest seat pool is the many-trees-one-pool shape
//     the Forest wiring uses.)
//
//     The slabs are consecutive pieces of ONE region, in module order,
//     each starting 64-byte aligned. A region of 2 MiB or more is 2 MiB
//     aligned and advised onto transparent huge pages where the platform
//     has MADV_HUGEPAGE; it is never zero-filled, since the payload fill
//     writes every slot. The build runs in two passes over BFS chunks of
//     2^16 ids (parallel_chunks, one thread per hardware thread; a tree
//     of one chunk builds inline on the calling thread): pass 1 colors
//     each chunk and counts its nodes per module, an exclusive prefix
//     over (module, chunk) gives each chunk its first slot in every slab,
//     and pass 2 fills each chunk's payloads and addresses. Chunk c's
//     nodes of a module follow chunk c-1's, so the layout is the serial
//     one at any thread count.
//
//   touch() — performs genuine loads: every 8-byte lane of every
//     requested node's payload is read and folded into a checksum. The
//     fold makes the loads observable (nothing for the compiler to
//     dead-code away) and doubles as an end-to-end data-integrity check:
//     the expected checksum of any node set is computable analytically
//     (expected_node_checksum), so a bench can verify it really read what
//     the arenas hold.
//
// Determinism contract: a backend is immutable after construction —
// touch() only reads — so any number of threads may touch concurrently.
// TouchStats aggregates with commutative arithmetic (sums; the checksum
// is a sum of per-node folds), so an aggregate over a set of batches is
// independent of the order OR the thread the batches were touched on.
// That is what lets the serve executor touch each batch on whichever
// worker resolves it and still report identical totals at every thread
// count (and bit-identical responses: touches never feed back into any
// scheduling decision).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "pmtree/mapping/mapping.hpp"
#include "pmtree/tree/node.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/json.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree::mem {

namespace detail {

/// Hex string for JSON export — Json stores numbers as double, which is
/// only exact below 2^53, and checksums use all 64 bits.
[[nodiscard]] inline std::string hex64(std::uint64_t v) {
  char buf[19] = "0x";
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) {
    buf[2 + i] = kDigits[(v >> (60 - 4 * i)) & 0xF];
  }
  buf[18] = '\0';
  return std::string(buf);
}

/// Frees a MemoryBackend's region with the alignment it was allocated at.
struct RegionFree {
  std::size_t align = 0;
  void operator()(std::uint64_t* p) const noexcept;
};

}  // namespace detail

/// Arena sizing knobs. Defaults model a cache-line-sized node record.
struct ArenaOptions {
  /// Payload bytes per node, rounded up to whole 8-byte lanes (minimum
  /// one lane). The default is one cache line.
  std::uint32_t payload_bytes = 64;
};

/// What a sequence of touch() calls read. All fields aggregate with
/// commutative arithmetic, so += over any batch order (or thread
/// partition) produces the same totals.
struct TouchStats {
  std::uint64_t nodes = 0;     ///< node payloads read
  std::uint64_t bytes = 0;     ///< bytes read (nodes * stride)
  std::uint64_t checksum = 0;  ///< sum (mod 2^64) of per-node lane folds

  TouchStats& operator+=(const TouchStats& other) noexcept {
    nodes += other.nodes;
    bytes += other.bytes;
    checksum += other.checksum;
    return *this;
  }
  friend bool operator==(const TouchStats&, const TouchStats&) = default;

  [[nodiscard]] Json to_json() const {
    Json j = Json::object();
    j.set("nodes", Json(nodes));
    j.set("bytes", Json(bytes));
    j.set("checksum", Json(detail::hex64(checksum)));
    return j;
  }
};

/// Per-module arenas over one placement mapping. The placement mapping
/// (not owned; must outlive the backend) decides which slab each node
/// lives in; it is a *physical* layout decision, frozen at construction —
/// the serve layer may resolve conflicts against a different (e.g.
/// adaptive-epoch) mapping without the data moving, exactly like a real
/// system whose router changes faster than its storage.
class MemoryBackend {
 public:
  /// Builds the arenas. Throws std::length_error, before allocating
  /// anything, when the region's size bound (payload bytes plus 63 bytes
  /// of slab-start padding per module) does not fit size_t, and
  /// std::invalid_argument when the placement colors a node with a
  /// module >= num_modules() (so always when num_modules() is 0).
  explicit MemoryBackend(const TreeMapping& placement,
                         ArenaOptions options = {});

  MemoryBackend(const MemoryBackend&) = delete;
  MemoryBackend& operator=(const MemoryBackend&) = delete;

  /// Reads every lane of every node's payload; returns what was read.
  /// Thread-safe (const, arenas immutable). Nodes must belong to the
  /// placement tree; duplicates are read once each, like the hardware
  /// would.
  [[nodiscard]] TouchStats touch(std::span<const Node> nodes) const noexcept {
    TouchStats stats;
    std::uint64_t sum = 0;
    const std::size_t lanes = lanes_;
    for (const Node n : nodes) {
      const std::uint64_t* p = addr_[bfs_id(n)];
      std::uint64_t fold = 0;
      for (std::size_t j = 0; j < lanes; ++j) fold ^= p[j];
      sum += fold;
    }
    stats.nodes = nodes.size();
    stats.bytes = nodes.size() * stride_;
    stats.checksum = sum;
    return stats;
  }

  [[nodiscard]] const TreeMapping& placement() const noexcept {
    return placement_;
  }
  [[nodiscard]] CompleteBinaryTree tree() const noexcept { return tree_; }
  [[nodiscard]] std::uint32_t modules() const noexcept { return modules_; }
  /// Requested payload bytes per node (pre-rounding).
  [[nodiscard]] std::uint32_t payload_bytes() const noexcept {
    return payload_bytes_;
  }
  /// Physical bytes per node slot: payload rounded up to 8-byte lanes.
  [[nodiscard]] std::uint32_t stride_bytes() const noexcept {
    return static_cast<std::uint32_t>(stride_);
  }
  /// Total payload bytes across all slabs (the region adds at most 63
  /// bytes of alignment padding per slab).
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept {
    return tree_.size() * stride_;
  }

  /// First payload lane of `n` (stride_bytes()/8 lanes long). `n` lives
  /// in the slab of module placement().color_of(n), whose start is
  /// 64-byte aligned, at the slot after the module's lower-BFS-id nodes.
  [[nodiscard]] const std::uint64_t* payload(Node n) const noexcept {
    return addr_[bfs_id(n)];
  }

  /// What touch() would fold for `n` alone — computed from the fill
  /// generator, not by reading the arena, so a test comparing it against
  /// touch({n}).checksum verifies the physical bytes.
  [[nodiscard]] std::uint64_t expected_node_checksum(Node n) const noexcept {
    const std::uint64_t id = bfs_id(n);
    std::uint64_t fold = 0;
    for (std::size_t j = 0; j < lanes_; ++j) {
      fold ^= mix64(kFillSeed + id * lanes_ + j);
    }
    return fold;
  }

  /// Static layout facts plus the supplied touched totals — the payload
  /// ServeMetrics emits as its "memory" section.
  [[nodiscard]] Json stats(const TouchStats& touched) const;

 private:
  /// Seed of the deterministic payload fill: two backends with equal
  /// (tree, placement, payload) hold byte-identical arenas.
  static constexpr std::uint64_t kFillSeed = 0x9E3779B97F4A7C15ull;

  const TreeMapping& placement_;
  CompleteBinaryTree tree_;
  std::uint32_t modules_ = 0;
  std::uint32_t payload_bytes_ = 0;
  std::size_t stride_ = 0;  ///< bytes per node slot (multiple of 8)
  std::size_t lanes_ = 0;   ///< stride_ / 8
  /// Every slab, module after module (see the file comment).
  std::unique_ptr<std::uint64_t[], detail::RegionFree> region_;
  /// bfs_id -> payload, tree_.size() entries.
  std::unique_ptr<const std::uint64_t*[]> addr_;
};

}  // namespace pmtree::mem
