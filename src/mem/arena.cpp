#include "pmtree/mem/arena.hpp"

#include <algorithm>
#include <cstdint>

namespace pmtree::mem {

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

  const std::uint64_t nodes = tree_.size();
  assert(nodes > 0 && modules_ > 0);

  // Pass 1: color every node once through the placement's batch kernel
  // (chunked so huge trees don't need a second node-sized buffer). The
  // module table lives only until placement is done.
  std::vector<Color> module(nodes);
  std::vector<std::uint64_t> module_nodes(modules_, 0);
  {
    constexpr std::uint64_t kChunk = 1 << 16;
    std::vector<Node> chunk;
    std::vector<Color> colors;
    for (std::uint64_t base = 0; base < nodes; base += kChunk) {
      const std::uint64_t count = std::min(kChunk, nodes - base);
      chunk.resize(count);
      colors.resize(count);
      for (std::uint64_t i = 0; i < count; ++i) chunk[i] = node_at(base + i);
      placement_.color_of_batch(chunk, colors);
      for (std::uint64_t i = 0; i < count; ++i) {
        const Color c = colors[i];
        assert(c < modules_);
        module[base + i] = c;
        ++module_nodes[c];
      }
    }
  }

  // Pass 2: allocate one slab per module, over-allocated by 7 lanes so
  // the base can be aligned up to a 64-byte boundary portably.
  slabs_.resize(modules_);
  std::vector<std::uint64_t*> next(modules_);  // each slab's next slot
  for (Color m = 0; m < modules_; ++m) {
    slabs_[m].resize(module_nodes[m] * lanes_ + 7);
    auto raw = reinterpret_cast<std::uintptr_t>(slabs_[m].data());
    const std::uintptr_t aligned = (raw + 63) & ~std::uintptr_t{63};
    next[m] = slabs_[m].data() + (aligned - raw) / 8;
  }

  // Pass 3: module-major placement — walk nodes in BFS order, appending
  // each to its module's slab, so a module's nodes occupy consecutive
  // slots in BFS order. Fill each payload from the deterministic
  // generator (keyed by bfs_id, NOT by slot, so two backends over
  // different placements hold the same logical data in different
  // physical layouts — and produce identical touch checksums).
  addr_.resize(nodes);
  for (std::uint64_t id = 0; id < nodes; ++id) {
    std::uint64_t* p = next[module[id]];
    next[module[id]] += lanes_;
    for (std::size_t j = 0; j < lanes_; ++j) {
      p[j] = mix64(kFillSeed + id * lanes_ + j);
    }
    addr_[id] = p;
  }
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
