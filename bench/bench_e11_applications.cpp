// E11 — the Section 1.1 applications, end to end:
//
//   (a) binary min-heap: insert / decrease-key / extract-min all access
//       leaf-to-root paths (P-template). Under COLOR sized for the heap's
//       height every operation is a single memory round.
//   (b) B-tree-style range queries: composite template accesses; COLOR
//       keeps rounds near the ceil(D/M) ideal.
//
// The tables replay identical operation streams for each mapping and
// charge every access its busiest module's occupancy (rounds()); the timing
// section measures end-to-end throughput including address computation.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "pmtree/analysis/cost.hpp"
#include "pmtree/apps/parallel_heap.hpp"
#include "pmtree/apps/range_index.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/util/bits.hpp"
#include "pmtree/util/rng.hpp"
#include "pmtree/util/stats.hpp"

namespace {

using namespace pmtree;

std::vector<std::vector<Node>> heap_trace(std::uint32_t levels,
                                          std::size_t operations) {
  ParallelHeap heap(levels);
  Rng rng(111);
  std::vector<std::vector<Node>> accesses;
  accesses.reserve(operations);
  for (std::size_t op = 0; op < operations; ++op) {
    const bool do_insert =
        heap.size() == 0 || (heap.size() < heap.capacity() && rng.chance(3, 5));
    if (do_insert) {
      accesses.push_back(
          heap.insert(static_cast<ParallelHeap::Key>(rng.below(1u << 30))));
    } else if (rng.chance(1, 4) && heap.size() > 0) {
      const std::uint64_t pos = rng.below(heap.size());
      accesses.push_back(heap.decrease_key(pos, heap.key_at(pos) - 1));
    } else {
      ParallelHeap::Key out;
      accesses.push_back(heap.extract_min(&out));
    }
  }
  return accesses;
}

void print_heap_table() {
  const std::uint32_t levels = 14;
  const auto trace = heap_trace(levels, 30000);
  const CompleteBinaryTree tree(levels);

  const ColorMapping color(tree, levels, 3);  // CF on P(levels)
  const LabelTreeMapping label(tree, color.num_modules());
  const ModuloMapping naive(tree, color.num_modules());

  TableWriter table({"mapping", "modules", "rounds/op", "worst op",
                     "total rounds", "vs ideal"});
  for (const TreeMapping* map :
       {static_cast<const TreeMapping*>(&color),
        static_cast<const TreeMapping*>(&label),
        static_cast<const TreeMapping*>(&naive)}) {
    Accumulator per_op;
    std::uint64_t ideal = 0;
    for (const auto& access : trace) {
      per_op.add(rounds(*map, access));
      ideal += ceil_div(access.size(), map->num_modules());
    }
    table.row(map->name(), map->num_modules(), per_op.mean(), per_op.max(),
              per_op.sum(),
              static_cast<double>(per_op.sum()) / static_cast<double>(ideal));
  }
  bench::print_experiment(
      "E11a (Section 1.1, heap)",
      "heap operations are leaf-to-root path accesses; COLOR serves each "
      "in one round",
      table);
}

void print_range_table() {
  Rng keygen(17);
  std::vector<RangeIndex::Key> keys;
  RangeIndex::Key next = 0;
  for (int i = 0; i < 16384; ++i) {
    next += static_cast<RangeIndex::Key>(1 + keygen.below(7));
    keys.push_back(next);
  }
  const RangeIndex index(keys);
  const std::uint32_t M = 15;
  const EagerColorMapping color(make_optimal_color_mapping(index.tree(), M));
  const LabelTreeMapping label(index.tree(), M);
  const ModuloMapping naive(index.tree(), M);

  TableWriter table({"mapping", "queries", "rounds/query", "worst",
                     "vs ideal"});
  for (const TreeMapping* map :
       {static_cast<const TreeMapping*>(&color),
        static_cast<const TreeMapping*>(&label),
        static_cast<const TreeMapping*>(&naive)}) {
    Accumulator per_query;
    std::uint64_t ideal = 0;
    Rng rng(23);
    for (int q = 0; q < 2000; ++q) {
      const auto lo = static_cast<RangeIndex::Key>(rng.below(static_cast<std::uint64_t>(next)));
      const auto hi = lo + static_cast<RangeIndex::Key>(rng.below(static_cast<std::uint64_t>(next) / 16));
      const auto result = index.query(lo, hi);
      if (!result.accessed.empty()) {
        per_query.add(rounds(*map, result.accessed));
        ideal += ceil_div(result.accessed.size(), map->num_modules());
      }
    }
    table.row(map->name(), per_query.count(), per_query.mean(),
              per_query.max(),
              static_cast<double>(per_query.sum()) /
                  static_cast<double>(ideal));
  }
  bench::print_experiment(
      "E11b (Section 1.1, range queries)",
      "range queries as composite templates through the memory system",
      table);
}

void BM_HeapThroughput(benchmark::State& state) {
  const std::uint32_t levels = 14;
  const CompleteBinaryTree tree(levels);
  const ColorMapping color(tree, levels, 3);
  const auto trace = heap_trace(levels, 2000);
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (const auto& access : trace) total += rounds(color, access);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_HeapThroughput);

void BM_RangeQueryThroughput(benchmark::State& state) {
  Rng keygen(17);
  std::vector<RangeIndex::Key> keys;
  RangeIndex::Key next = 0;
  for (int i = 0; i < 4096; ++i) {
    next += static_cast<RangeIndex::Key>(1 + keygen.below(7));
    keys.push_back(next);
  }
  const RangeIndex index(keys);
  const EagerColorMapping color(make_optimal_color_mapping(index.tree(), 15));
  Rng rng(29);
  std::uint64_t queries = 0;
  for (auto _ : state) {
    const auto lo = static_cast<RangeIndex::Key>(rng.below(static_cast<std::uint64_t>(next)));
    const auto hi = lo + static_cast<RangeIndex::Key>(rng.below(static_cast<std::uint64_t>(next) / 16));
    const auto result = index.query(lo, hi);
    if (!result.accessed.empty()) {
      benchmark::DoNotOptimize(rounds(color, result.accessed));
    }
    ++queries;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(queries));
}
BENCHMARK(BM_RangeQueryThroughput);

}  // namespace

int main(int argc, char** argv) {
  print_heap_table();
  print_range_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
