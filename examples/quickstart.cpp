// Quickstart: map a complete binary tree onto a parallel memory system
// with the paper's COLOR algorithm and observe conflict-free template
// access.
//
//   $ ./quickstart
//
// Walks through: picking parameters, building the mapping, asking for node
// addresses, and measuring the cost of subtree / path / level accesses.
#include <cstdint>
#include <iostream>
#include <vector>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/templates/instance.hpp"
#include "pmtree/util/bits.hpp"

int main() {
  using namespace pmtree;

  // A tree of 16 levels (65535 nodes) that we want to access by complete
  // subtrees of size K = 7 and ascending paths of N = 6 nodes.
  const CompleteBinaryTree tree(16);
  const std::uint32_t k = 3;  // K = 2^k - 1 = 7
  const std::uint32_t N = 6;

  // COLOR(T, N, K) uses the provably minimal number of memory modules for
  // conflict-free access to both templates: N + K - k.
  const ColorMapping mapping(tree, N, k);
  std::cout << "mapping   : " << mapping.name() << "\n"
            << "modules   : " << mapping.num_modules()
            << "  (optimal: no CF mapping can use fewer)\n\n";

  // Where does a node live? color_of is the addressing function.
  const Node example = v(12345, 14);
  std::cout << "node " << to_string(example) << " is stored on module "
            << mapping.color_of(example) << "\n\n";

  // Access a subtree, a path and a level run: each parallel access takes
  // as many memory rounds as its busiest module has requests.
  const auto report = [&](const char* label, const std::vector<Node>& nodes) {
    std::cout << label << nodes.size() << " nodes in "
              << rounds(mapping, nodes) << " round(s), "
              << conflicts(mapping, nodes) << " conflict(s)\n";
  };
  report("subtree S_7  : ", SubtreeInstance{v(100, 8), 7}.nodes());
  report("path    P_6  : ", PathInstance{v(4321, 13), 6}.nodes());
  report("level   L_7  : ", LevelRunInstance{v(777, 12), 7}.nodes());
  std::cout << "\n";

  // The guarantee is for *every* instance, not just these three — check
  // the whole families exhaustively.
  std::cout << "worst case over ALL instances:\n";
  std::cout << "  S(7): " << evaluate_subtrees(mapping, 7).max_conflicts
            << " conflicts\n";
  std::cout << "  P(6): " << evaluate_paths(mapping, 6).max_conflicts
            << " conflicts\n";
  std::cout << "  L(7): " << evaluate_level_runs(mapping, 7).max_conflicts
            << " conflicts (Lemma 2 gives at most 1 inside one height-N "
               "block;\n        crossing a block-generation boundary can "
               "add one more)\n\n";

  // A naive mapping with the same module budget is far from conflict-free.
  const ModuloMapping naive(tree, mapping.num_modules());
  std::cout << "for comparison, " << naive.name() << ":\n";
  std::cout << "  S(7): " << evaluate_subtrees(naive, 7).max_conflicts
            << " conflicts\n";
  std::cout << "  P(6): " << evaluate_paths(naive, 6).max_conflicts
            << " conflicts\n";
  return 0;
}
