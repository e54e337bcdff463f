// Parallel memory system simulation: replays a large mixed workload
// against several mappings, charging each access its busiest module's
// occupancy (rounds()), and reports simulated memory rounds (the paper's
// cost model) alongside wall time (which also reflects each mapping's
// addressing cost).
//
//   $ ./pms_simulation [levels] [accesses]
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/pms/workload.hpp"
#include "pmtree/util/bits.hpp"
#include "pmtree/util/stats.hpp"
#include "pmtree/util/table.hpp"

int main(int argc, char** argv) {
  using namespace pmtree;

  const std::uint32_t levels =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 20;
  const std::size_t accesses =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 50000;

  const CompleteBinaryTree tree(levels);
  const std::uint32_t M = 15;

  const auto color = make_optimal_color_mapping(tree, M);
  const LabelTreeMapping label(tree, M);
  const LabelTreeMapping label_norec(tree, M,
                                     LabelTreeMapping::Retrieval::kRecursive);
  const ModuloMapping naive(tree, M);
  const RandomMapping random(tree, M, 5);

  std::cout << "tree: " << levels << " levels (" << tree.size()
            << " nodes), M=" << M << " modules, " << accesses
            << " mixed template accesses of size " << M << "\n\n";

  const auto workload = Workload::mixed(tree, M, accesses, 2718);

  TableWriter table({"mapping", "rounds", "vs ideal", "worst access",
                     "wall s", "Maccesses/s"});
  for (const TreeMapping* mapping :
       {static_cast<const TreeMapping*>(&color),
        static_cast<const TreeMapping*>(&label),
        static_cast<const TreeMapping*>(&label_norec),
        static_cast<const TreeMapping*>(&naive),
        static_cast<const TreeMapping*>(&random)}) {
    Accumulator per_access;
    std::uint64_t ideal = 0;  // every access spread perfectly: ceil(|a| / M)
    const auto start = std::chrono::steady_clock::now();
    for (const auto& access : workload.accesses()) {
      per_access.add(rounds(*mapping, access));
      ideal += ceil_div(access.size(), mapping->num_modules());
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    const double slowdown =
        ideal == 0 ? 1.0
                   : static_cast<double>(per_access.sum()) /
                         static_cast<double>(ideal);
    table.row(mapping->name(), per_access.sum(), slowdown, per_access.max(),
              wall,
              static_cast<double>(workload.size()) / 1e6 /
                  (wall > 0 ? wall : 1e-9));
  }
  table.print(std::cout);
  std::cout << "\n'rounds' is the simulated completion time in serialized "
               "memory rounds;\n'wall s' additionally reflects each "
               "mapping's address-computation cost.\n";
  return 0;
}
