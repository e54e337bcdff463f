// Dictionary demo (Section 1.1: "heaps and dictionaries are among the two
// most popular data structures implemented with trees").
//
// A static ordered dictionary on a complete BST. Lookups speculatively
// fetch the whole root-to-leaf path in one parallel access; under COLOR
// (conflict-free on paths of the tree height) every lookup is exactly one
// memory round, while naive layouts serialize on hot modules.
//
//   $ ./dictionary_demo [levels] [lookups]
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <set>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/apps/dictionary.hpp"
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
  const std::size_t lookups =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 20000;

  // Distinct sorted keys, exactly filling the complete tree.
  Rng keygen(3);
  std::set<Dictionary::Key> key_set;
  while (key_set.size() < tree_size(levels)) {
    key_set.insert(static_cast<Dictionary::Key>(keygen.below(1u << 28)));
  }
  const std::vector<Dictionary::Key> keys(key_set.begin(), key_set.end());
  const Dictionary dict(keys);
  std::cout << "dictionary: " << dict.size() << " keys on a " << levels
            << "-level complete BST\n\n";

  const ColorMapping color(dict.tree(), levels, 3);
  const LabelTreeMapping label(dict.tree(), color.num_modules());
  const ModuloMapping naive(dict.tree(), color.num_modules());

  TableWriter table({"mapping", "modules", "lookups", "hits", "rounds/lookup",
                     "worst lookup"});
  for (const TreeMapping* map :
       {static_cast<const TreeMapping*>(&color),
        static_cast<const TreeMapping*>(&label),
        static_cast<const TreeMapping*>(&naive)}) {
    Accumulator per_lookup;
    Rng rng(42);
    std::uint64_t hits = 0;
    for (std::size_t q = 0; q < lookups; ++q) {
      // Half the probes are present keys, half uniform misses.
      const auto probe =
          rng.chance(1, 2)
              ? keys[rng.below(keys.size())]
              : static_cast<Dictionary::Key>(rng.below(1u << 28));
      const auto result = dict.search(probe);
      hits += result.found ? 1 : 0;
      per_lookup.add(rounds(*map, result.accessed));
    }
    table.row(map->name(), map->num_modules(), lookups, hits,
              per_lookup.mean(), per_lookup.max());
  }
  table.print(std::cout);
  std::cout << "\nevery lookup fetches one full root-to-leaf path; COLOR "
               "makes it a single round.\n";
  return 0;
}
