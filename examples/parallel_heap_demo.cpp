// Parallel-heap demo (the paper's Section 1.1 motivating application).
//
// A binary min-heap whose every operation touches a leaf-to-root path is
// run against three memory mappings; the demo reports how many serialized
// memory rounds each mapping needs for the same operation stream.
//
//   $ ./parallel_heap_demo [levels] [operations]
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/apps/parallel_heap.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/util/bits.hpp"
#include "pmtree/util/rng.hpp"
#include "pmtree/util/stats.hpp"
#include "pmtree/util/table.hpp"

int main(int argc, char** argv) {
  using namespace pmtree;

  const std::uint32_t levels =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 14;
  const std::size_t operations =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 20000;

  // Pre-generate one operation stream (2/3 inserts, 1/3 extract-mins) and
  // record the paths it accesses, so every mapping sees identical traffic.
  ParallelHeap heap(levels);
  Rng rng(1234);
  std::vector<std::vector<Node>> accesses;
  accesses.reserve(operations);
  std::uint64_t inserts = 0, extracts = 0;
  for (std::size_t op = 0; op < operations; ++op) {
    const bool do_insert =
        heap.size() == 0 || (heap.size() < heap.capacity() && rng.chance(2, 3));
    if (do_insert) {
      accesses.push_back(heap.insert(static_cast<ParallelHeap::Key>(rng.below(1u << 30))));
      ++inserts;
    } else {
      ParallelHeap::Key out;
      accesses.push_back(heap.extract_min(&out));
      ++extracts;
    }
  }
  std::cout << "heap levels=" << levels << "  operations=" << operations
            << " (" << inserts << " inserts, " << extracts << " extract-mins)\n\n";

  // COLOR sized so full leaf-to-root paths (length = levels) are CF.
  const std::uint32_t k = 3;
  const ColorMapping color(CompleteBinaryTree(levels), levels, k);
  const LabelTreeMapping label(CompleteBinaryTree(levels), color.num_modules());
  const ModuloMapping naive(CompleteBinaryTree(levels), color.num_modules());

  TableWriter table({"mapping", "modules", "total rounds", "rounds/op",
                     "worst op", "vs ideal"});
  for (const TreeMapping* mapping :
       {static_cast<const TreeMapping*>(&color),
        static_cast<const TreeMapping*>(&label),
        static_cast<const TreeMapping*>(&naive)}) {
    Accumulator per_op;
    std::uint64_t ideal = 0;  // every op spread perfectly: ceil(|op| / M)
    for (const auto& access : accesses) {
      per_op.add(rounds(*mapping, access));
      ideal += ceil_div(access.size(), mapping->num_modules());
    }
    table.row(mapping->name(), mapping->num_modules(), per_op.sum(),
              per_op.mean(), per_op.max(),
              static_cast<double>(per_op.sum()) / static_cast<double>(ideal));
  }
  table.print(std::cout);
  std::cout << "\nCOLOR serves every heap operation in a single memory "
               "round; the naive layout serializes.\n";
  return 0;
}
