// Mapping inspector: a small CLI for exploring how the mappings place a
// tree onto memory modules.
//
//   $ ./mapping_inspector color <levels> <N> <k>
//   $ ./mapping_inspector labeltree <levels> <M>
//   $ ./mapping_inspector modulo <levels> <M>
//
// Prints the mapping's parameters, the per-level color layout for small
// trees, the per-module usage report, and the per-level worst-conflict
// profiles for the natural template sizes.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "pmtree/analysis/load_balance.hpp"
#include "pmtree/analysis/profile.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/util/bits.hpp"
#include "pmtree/util/table.hpp"

namespace {

using namespace pmtree;

void usage(const char* argv0) {
  std::cerr << "usage:\n"
            << "  " << argv0 << " color <levels> <N> <k>\n"
            << "  " << argv0 << " labeltree <levels> <M>\n"
            << "  " << argv0 << " modulo <levels> <M>\n";
}

void print_layout(const TreeMapping& map) {
  const auto& tree = map.tree();
  if (tree.levels() > 6) {
    std::cout << "(tree too large to print the full layout)\n\n";
    return;
  }
  std::cout << "color layout (one row per level):\n";
  for (std::uint32_t j = 0; j < tree.levels(); ++j) {
    std::cout << "  L" << j << ":";
    for (std::uint64_t i = 0; i < tree.level_width(j); ++i) {
      std::cout << ' ' << map.color_of(v(i, j));
    }
    std::cout << '\n';
  }
  std::cout << '\n';
}

void print_usage_report(const TreeMapping& map) {
  const auto usage_rows = color_report(map);
  const auto balance = load_balance(map);
  TableWriter table({"module", "nodes", "first level", "last level"});
  for (std::uint32_t c = 0; c < usage_rows.size(); ++c) {
    const ColorUsage& u = usage_rows[c];
    if (!u.used) {
      table.row(c, 0, "-", "-");
    } else {
      table.row(c, u.nodes, u.first_level, u.last_level);
    }
  }
  table.print(std::cout);
  std::cout << "load ratio (max/min over used modules): " << balance.ratio()
            << "\n\n";
}

void print_profiles(const TreeMapping& map, std::uint64_t K, std::uint32_t N) {
  const auto sp = subtree_profile(map, K);
  const auto lp = level_run_profile(map, K);
  const auto pp = path_profile(map, N);
  TableWriter table({"level", "worst S(K) rooted here", "worst L(K) here",
                     "worst P(N) starting here"});
  for (std::uint32_t j = 0; j < map.tree().levels(); ++j) {
    table.row(j, sp.worst_by_level[j], lp.worst_by_level[j],
              pp.worst_by_level[j]);
  }
  table.print(std::cout);
  std::cout << "overall: S(K)=" << sp.overall << "  L(K)=" << lp.overall
            << "  P(N)=" << pp.overall << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    usage(argv[0]);
    return 1;
  }
  const std::string kind = argv[1];
  const auto levels = static_cast<std::uint32_t>(std::atoi(argv[2]));
  if (levels < 1 || levels > 24) {
    std::cerr << "levels must be in [1, 24] for inspection\n";
    return 1;
  }
  const CompleteBinaryTree tree(levels);

  std::unique_ptr<TreeMapping> map;
  std::uint64_t K = 3;
  std::uint32_t N = std::min(levels, 5u);
  try {
    // The mapping constructors check the paper's parameter rules.
    if (kind == "color" && argc == 5) {
      N = static_cast<std::uint32_t>(std::atoi(argv[3]));
      const auto k = static_cast<std::uint32_t>(std::atoi(argv[4]));
      map = std::make_unique<ColorMapping>(tree, N, k);
      K = tree_size(k);
    } else if (kind == "labeltree" && argc == 4) {
      const auto M = static_cast<std::uint32_t>(std::atoi(argv[3]));
      map = std::make_unique<LabelTreeMapping>(tree, M);
      K = tree_size(std::min(ceil_log2(M), levels));
    } else if (kind == "modulo" && argc == 4) {
      const auto M = static_cast<std::uint32_t>(std::atoi(argv[3]));
      if (M < 1) {
        std::cerr << "M must be >= 1\n";
        return 1;
      }
      map = std::make_unique<ModuloMapping>(tree, M);
    } else {
      usage(argv[0]);
      return 1;
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << '\n';
    return 1;
  }

  std::cout << "mapping: " << map->name() << " on " << map->num_modules()
            << " modules, tree of " << levels << " levels (" << tree.size()
            << " nodes)\n\n";
  print_layout(*map);
  print_usage_report(*map);
  print_profiles(*map, std::min(K, tree.size()), N);
  return 0;
}
