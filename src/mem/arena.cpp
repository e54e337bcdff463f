#include "pmtree/mem/arena.hpp"

#include <cstdint>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "pmtree/util/parallel.hpp"

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

namespace pmtree::mem {

namespace {

/// BFS ids per build chunk.
constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
/// Lanes per 64-byte slab-start alignment.
constexpr std::uint64_t kSlabLanes = 8;
/// A region this large is 2 MiB aligned and advised onto huge pages.
constexpr std::size_t kHugePage = std::size_t{2} << 20;

}  // namespace

void detail::RegionFree::operator()(std::uint64_t* p) const noexcept {
  ::operator delete(p, std::align_val_t{align});
}

MemoryBackend::MemoryBackend(const TreeMapping& placement,
                             ArenaOptions options)
    : placement_(placement),
      tree_(placement.tree()),
      modules_(placement.num_modules()),
      payload_bytes_(options.payload_bytes == 0 ? 8 : options.payload_bytes) {
  // Round the payload up to whole 8-byte lanes: the fill and the touch
  // fold both work in u64 lanes, and a partial trailing lane would make
  // the checksum depend on uninitialized bytes.
  stride_ = (static_cast<std::size_t>(payload_bytes_) + 7) / 8 * 8;
  lanes_ = stride_ / 8;

  // The region holds every payload plus at most 63 bytes of padding in
  // front of each slab. Refuse a bound past size_t before allocating.
  const std::uint64_t nodes = tree_.size();
  constexpr std::uint64_t kMaxBytes = std::numeric_limits<std::size_t>::max();
  const std::uint64_t padding = std::uint64_t{modules_} * (kSlabLanes * 8 - 1);
  if (padding > kMaxBytes || nodes > (kMaxBytes - padding) / stride_) {
    throw std::length_error("MemoryBackend: a region of " +
                            std::to_string(nodes) + " nodes of " +
                            std::to_string(stride_) +
                            " bytes does not fit size_t");
  }

  // Color the root here first: a placement that builds its batch tables
  // lazily (COLOR) then builds them once, not once per worker.
  {
    const Node root = node_at(0);
    Color color = 0;
    placement_.color_of_batch({&root, 1}, {&color, 1});
  }

  // parallel_chunks runs a one-chunk tree inline on this thread.
  const unsigned threads = resolve_threads(0);
  const std::uint64_t chunks = (nodes + kChunk - 1) / kChunk;
  const auto module = std::make_unique_for_overwrite<Color[]>(nodes);
  // Pass 1: color each chunk and count its nodes per module. first[c *
  // modules_ + m] holds chunk c's count of module m, then (after the
  // prefix) the lane of the region where chunk c's first node of m goes.
  std::vector<std::uint64_t> first(chunks * modules_, 0);
  std::vector<std::vector<Node>> ids(threads);
  parallel_chunks(
      nodes, threads, kChunk,
      [&](unsigned tid, std::uint64_t begin, std::uint64_t end) {
        std::vector<Node>& chunk = ids[tid];
        chunk.resize(end - begin);
        for (std::uint64_t id = begin; id < end; ++id) {
          chunk[id - begin] = node_at(id);
        }
        placement_.color_of_batch(chunk, {module.get() + begin, end - begin});
        std::uint64_t* count = first.data() + begin / kChunk * modules_;
        for (std::uint64_t id = begin; id < end; ++id) {
          const Color m = module[id];
          if (m >= modules_) {
            throw std::invalid_argument(
                "MemoryBackend: the placement colors BFS id " +
                std::to_string(id) + " with module " + std::to_string(m) +
                " of " + std::to_string(modules_));
          }
          ++count[m];
        }
      });

  // The exclusive prefix over (module, chunk): each slab starts 64-byte
  // aligned, and within it chunk c's nodes follow chunk c-1's.
  std::uint64_t lane = 0;
  for (Color m = 0; m < modules_; ++m) {
    lane = (lane + kSlabLanes - 1) / kSlabLanes * kSlabLanes;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      std::uint64_t& at = first[c * modules_ + m];
      const std::uint64_t count = at;
      at = lane;
      lane += count * lanes_;
    }
  }

  // One region, not value-initialized: pass 2 writes every slot.
  const auto bytes = static_cast<std::size_t>(lane * 8);
  const std::size_t align = bytes >= kHugePage ? kHugePage : kSlabLanes * 8;
  region_ = std::unique_ptr<std::uint64_t[], detail::RegionFree>(
      static_cast<std::uint64_t*>(
          ::operator new(bytes, std::align_val_t{align})),
      detail::RegionFree{align});
#ifdef MADV_HUGEPAGE
  if (bytes >= kHugePage) {
    // Advice only: where it is refused, the region stays on base pages.
    (void)::madvise(region_.get(), bytes, MADV_HUGEPAGE);
  }
#endif

  // Pass 2: fill each chunk's payloads from the deterministic generator,
  // keyed by bfs_id and NOT by slot, so two backends over different
  // placements hold the same logical data in different physical layouts
  // (and produce identical touch checksums), and record their addresses.
  addr_ = std::make_unique_for_overwrite<const std::uint64_t*[]>(nodes);
  parallel_chunks(
      nodes, threads, kChunk,
      [&](unsigned, std::uint64_t begin, std::uint64_t end) {
        std::uint64_t* next = first.data() + begin / kChunk * modules_;
        for (std::uint64_t id = begin; id < end; ++id) {
          std::uint64_t* p = region_.get() + next[module[id]];
          next[module[id]] += lanes_;
          for (std::size_t j = 0; j < lanes_; ++j) {
            p[j] = mix64(kFillSeed + id * lanes_ + j);
          }
          addr_[id] = p;
        }
      });
}

Json MemoryBackend::stats(const TouchStats& touched) const {
  Json j = Json::object();
  j.set("placement", Json(placement_.name()));
  j.set("modules", Json(static_cast<std::uint64_t>(modules_)));
  j.set("payload_bytes", Json(static_cast<std::uint64_t>(payload_bytes_)));
  j.set("stride_bytes", Json(static_cast<std::uint64_t>(stride_bytes())));
  j.set("resident_bytes", Json(resident_bytes()));
  j.set("touched", touched.to_json());
  return j;
}

}  // namespace pmtree::mem
