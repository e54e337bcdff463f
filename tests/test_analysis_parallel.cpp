// Determinism tests for the parallel cost evaluators: every evaluate_* /
// sample_* result — max, mean, instance count, and the exact witness node
// set — must be bit-identical at 1, 2 and 8 threads, and the witness must
// be the lowest-index instance of the family attaining the maximum.
#include <gtest/gtest.h>

#include <vector>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/templates/enumerate.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree {
namespace {

void expect_same(const FamilyCost& a, const FamilyCost& b,
                 const std::string& label) {
  EXPECT_EQ(a.max_conflicts, b.max_conflicts) << label;
  EXPECT_EQ(a.mean_conflicts, b.mean_conflicts) << label;  // exact, not near
  EXPECT_EQ(a.instances, b.instances) << label;
  EXPECT_EQ(a.witness, b.witness) << label;
}

/// Evaluates one family at 1/2/8 threads (forcing the parallel path with
/// cutoff 0) and requires bit-identical FamilyCosts; returns the 1-thread
/// result for further checks.
template <typename Eval>
FamilyCost expect_thread_invariant(const Eval& eval, const std::string& label) {
  const FamilyCost base = eval(EvalOptions{1, 0});
  for (const unsigned threads : {2u, 8u}) {
    expect_same(base, eval(EvalOptions{threads, 0}),
                label + " @" + std::to_string(threads) + "t");
  }
  // Default options (auto threads, default cutoff) must agree too.
  expect_same(base, eval(EvalOptions{}), label + " @default");
  return base;
}

TEST(AnalysisParallel, EvaluateFamiliesBitIdenticalAcrossThreadCounts) {
  const CompleteBinaryTree tree(11);
  const ColorMapping color(tree, 6, 3);
  const LabelTreeMapping label(tree, 15);
  const RandomMapping random(tree, 13, 7);
  const std::uint64_t K = 7;

  for (const TreeMapping* m :
       {static_cast<const TreeMapping*>(&color),
        static_cast<const TreeMapping*>(&label),
        static_cast<const TreeMapping*>(&random)}) {
    const std::string who = m->name();
    expect_thread_invariant(
        [&](const EvalOptions& o) { return evaluate_subtrees(*m, K, o); },
        who + " subtrees");
    expect_thread_invariant(
        [&](const EvalOptions& o) { return evaluate_level_runs(*m, K, o); },
        who + " level_runs");
    expect_thread_invariant(
        [&](const EvalOptions& o) { return evaluate_paths(*m, K, o); },
        who + " paths");
  }
}

TEST(AnalysisParallel, SampledFamiliesBitIdenticalAcrossThreadCounts) {
  const CompleteBinaryTree tree(16);
  const ColorMapping mapping(tree, 6, 3);
  const std::uint64_t K = 7;
  const std::uint64_t samples = 5000;

  // Each evaluation re-seeds its own Rng, so the draw sequence is the
  // same for every thread count by construction; the reduction must be.
  expect_thread_invariant(
      [&](const EvalOptions& o) {
        Rng rng(101);
        return sample_subtrees(mapping, K, samples, rng, o);
      },
      "sample_subtrees");
  expect_thread_invariant(
      [&](const EvalOptions& o) {
        Rng rng(102);
        return sample_level_runs(mapping, K, samples, rng, o);
      },
      "sample_level_runs");
  expect_thread_invariant(
      [&](const EvalOptions& o) {
        Rng rng(103);
        return sample_paths(mapping, K, samples, rng, o);
      },
      "sample_paths");
  expect_thread_invariant(
      [&](const EvalOptions& o) {
        Rng rng(104);
        return sample_composites(mapping, 24, 3, 1000, rng, o);
      },
      "sample_composites");
}

TEST(AnalysisParallel, WitnessIsFirstInstanceAttainingMax) {
  // Sequential ground truth over the family's indices, then cross-check
  // that the parallel scan picks the same (lowest-index) witness.
  const CompleteBinaryTree tree(10);
  const ModuloMapping mapping(tree, 13);
  const std::uint64_t K = 7;

  FamilyCost expected;
  bool have = false;
  for (std::uint64_t i = 0; i < count_subtrees(tree, K); ++i) {
    const auto nodes = subtree_at(tree, K, i).nodes();
    const std::uint64_t cost = conflicts(mapping, nodes);
    expected.instances += 1;
    if (!have || cost > expected.max_conflicts) {
      expected.witness = nodes;
      have = true;
    }
    expected.max_conflicts = std::max(expected.max_conflicts, cost);
  }

  for (const unsigned threads : {1u, 2u, 8u}) {
    const FamilyCost got =
        evaluate_subtrees(mapping, K, EvalOptions{threads, 0});
    EXPECT_EQ(got.max_conflicts, expected.max_conflicts);
    EXPECT_EQ(got.instances, expected.instances);
    EXPECT_EQ(got.witness, expected.witness) << threads << " threads";
  }
}

TEST(AnalysisParallel, RoundsIsConflictsPlusOne) {
  const CompleteBinaryTree tree(12);
  const ColorMapping mapping(tree, 6, 3);
  Rng rng(7);

  // 200 random accesses of mixed sizes (including empty).
  for (int a = 0; a < 200; ++a) {
    std::vector<Node> nodes;
    const std::uint64_t len = rng.below(20);  // 0..19 nodes
    for (std::uint64_t r = 0; r < len; ++r) {
      const auto level = static_cast<std::uint32_t>(rng.below(tree.levels()));
      nodes.push_back(Node{level, rng.below(pow2(level))});
    }
    EXPECT_EQ(rounds(mapping, nodes),
              nodes.empty() ? 0 : conflicts(mapping, nodes) + 1)
        << "access " << a;
  }
}

TEST(AnalysisParallel, EmptyFamiliesAndTinyTreesStayWellFormed) {
  const CompleteBinaryTree tree(3);
  const ModuloMapping mapping(tree, 5);
  // K larger than the tree: zero instances at every thread count.
  for (const unsigned threads : {1u, 2u, 8u}) {
    const FamilyCost fc =
        evaluate_subtrees(mapping, 15, EvalOptions{threads, 0});
    EXPECT_EQ(fc.instances, 0u);
    EXPECT_EQ(fc.max_conflicts, 0u);
    EXPECT_EQ(fc.mean_conflicts, 0.0);
    EXPECT_TRUE(fc.witness.empty());
  }
}

}  // namespace
}  // namespace pmtree
