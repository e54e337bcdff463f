// Determinism tests for the parallel cost evaluators: every evaluate_* /
// sample_* result — max, mean, instance count, and the exact witness node
// set — must equal a sequential scan of the same instances in index order,
// whose witness is the lowest-index instance attaining the maximum. Every
// family here has more instances than the evaluators' sequential cutoff
// (4,096), so the chunked parallel reduction is what produces the result.
// The evaluators run it on every hardware thread; on a host with one, the
// reduction never merges two threads, and the cases that check it report
// themselves skipped.
#include <gtest/gtest.h>

#include <vector>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/templates/enumerate.hpp"
#include "pmtree/templates/sampler.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/parallel.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree {
namespace {

/// Families at or above this size take the parallel reduction.
constexpr std::uint64_t kParallelFamily = 4096;

/// The evaluators run one thread per hardware thread, so their reduction
/// merges threads only on a host with two or more.
bool reduction_merges_threads() { return resolve_threads(0) >= 2; }

constexpr const char* kOneThread =
    "one hardware thread: the parallel reduction would not merge threads";

using Instances = std::vector<std::vector<Node>>;

/// The sequential reference: instances in order, the first one attaining
/// the maximum as the witness, the mean over the integer sum.
FamilyCost sequential_scan(const TreeMapping& mapping,
                           const Instances& instances) {
  FamilyCost fc;
  std::uint64_t sum = 0;
  for (const std::vector<Node>& nodes : instances) {
    const std::uint64_t cost = conflicts(mapping, nodes);
    if (fc.instances == 0 || cost > fc.max_conflicts) {
      fc.max_conflicts = cost;
      fc.witness = nodes;
    }
    sum += cost;
    fc.instances += 1;
  }
  fc.mean_conflicts = fc.instances == 0 ? 0.0
                                        : static_cast<double>(sum) /
                                              static_cast<double>(fc.instances);
  return fc;
}

/// An instance's nodes, in the order the evaluators read them.
template <typename Instance>
std::vector<Node> nodes_of(const Instance& instance) {
  std::vector<Node> nodes;
  instance.append_nodes(nodes);
  return nodes;
}

void expect_same(const FamilyCost& got, const FamilyCost& want,
                 const std::string& label) {
  EXPECT_GE(want.instances, kParallelFamily) << label << ": too small";
  EXPECT_EQ(got.max_conflicts, want.max_conflicts) << label;
  EXPECT_EQ(got.mean_conflicts, want.mean_conflicts) << label;  // exact
  EXPECT_EQ(got.instances, want.instances) << label;
  EXPECT_EQ(got.witness, want.witness) << label;
}

TEST(AnalysisParallel, EvaluateFamiliesBitIdenticalAcrossThreadCounts) {
  if (!reduction_merges_threads()) GTEST_SKIP() << kOneThread;
  const CompleteBinaryTree tree(15);
  const ColorMapping color(tree, 6, 3);
  const LabelTreeMapping label(tree, 15);
  const RandomMapping random(tree, 13, 7);
  const std::uint64_t K = 7;

  Instances subtrees, runs, paths;
  for (std::uint64_t i = 0; i < count_subtrees(tree, K); ++i) {
    subtrees.push_back(nodes_of(subtree_at(tree, K, i)));
  }
  for (std::uint64_t i = 0; i < count_level_runs(tree, K); ++i) {
    runs.push_back(nodes_of(level_run_at(tree, K, i)));
  }
  for (std::uint64_t i = 0; i < count_paths(tree, K); ++i) {
    paths.push_back(nodes_of(path_at(tree, K, i)));
  }
  for (const TreeMapping* m :
       {static_cast<const TreeMapping*>(&color),
        static_cast<const TreeMapping*>(&label),
        static_cast<const TreeMapping*>(&random)}) {
    const std::string who = m->name();
    expect_same(evaluate_subtrees(*m, K), sequential_scan(*m, subtrees),
                who + " subtrees");
    expect_same(evaluate_level_runs(*m, K), sequential_scan(*m, runs),
                who + " level_runs");
    expect_same(evaluate_paths(*m, K), sequential_scan(*m, paths),
                who + " paths");
  }
}

TEST(AnalysisParallel, SampledFamiliesBitIdenticalAcrossThreadCounts) {
  if (!reduction_merges_threads()) GTEST_SKIP() << kOneThread;
  const CompleteBinaryTree tree(16);
  const ColorMapping mapping(tree, 6, 3);
  const std::uint64_t K = 7;
  const std::uint64_t samples = 5000;

  // The reference draws from an Rng of the same seed, sample by sample,
  // skipping the draws that fit no instance as the evaluators do.
  const auto drawn = [&](std::uint64_t seed, auto draw) {
    Rng rng(seed);
    Instances out;
    for (std::uint64_t s = 0; s < samples; ++s) {
      if (auto inst = draw(rng)) out.push_back(nodes_of(*inst));
    }
    return out;
  };
  Rng r1(101), r2(102), r3(103), r4(104);
  expect_same(sample_subtrees(mapping, K, samples, r1),
              sequential_scan(mapping, drawn(101, [&](Rng& rng) {
                                return sample_subtree(tree, K, rng);
                              })),
              "sample_subtrees");
  expect_same(sample_level_runs(mapping, K, samples, r2),
              sequential_scan(mapping, drawn(102, [&](Rng& rng) {
                                return sample_level_run(tree, K, rng);
                              })),
              "sample_level_runs");
  expect_same(sample_paths(mapping, K, samples, r3),
              sequential_scan(mapping, drawn(103, [&](Rng& rng) {
                                return sample_path(tree, K, rng);
                              })),
              "sample_paths");
  CompositeSpec spec;
  spec.total_size = 24;
  spec.components = 3;
  expect_same(sample_composites(mapping, 24, 3, samples, r4),
              sequential_scan(mapping, drawn(104, [&](Rng& rng) {
                                return sample_composite(tree, spec, rng);
                              })),
              "sample_composites");
}

TEST(AnalysisParallel, WitnessIsFirstInstanceAttainingMax) {
  if (!reduction_merges_threads()) GTEST_SKIP() << kOneThread;
  // A modulo mapping ties the maximum across many subtrees: the parallel
  // scan must still pick the lowest-index one.
  const CompleteBinaryTree tree(15);
  const ModuloMapping mapping(tree, 13);
  const std::uint64_t K = 7;

  Instances subtrees;
  std::uint64_t first_max = 0;
  std::uint64_t max_cost = 0;
  for (std::uint64_t i = 0; i < count_subtrees(tree, K); ++i) {
    subtrees.push_back(nodes_of(subtree_at(tree, K, i)));
    const std::uint64_t cost = conflicts(mapping, subtrees.back());
    if (i == 0 || cost > max_cost) {
      max_cost = cost;
      first_max = i;
    }
  }
  const FamilyCost got = evaluate_subtrees(mapping, K);
  expect_same(got, sequential_scan(mapping, subtrees), "subtrees");
  EXPECT_EQ(got.witness, subtrees[first_max]);
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
  // K larger than the tree: zero instances.
  const FamilyCost fc = evaluate_subtrees(mapping, 15);
  EXPECT_EQ(fc.instances, 0u);
  EXPECT_EQ(fc.max_conflicts, 0u);
  EXPECT_EQ(fc.mean_conflicts, 0.0);
  EXPECT_TRUE(fc.witness.empty());
}

}  // namespace
}  // namespace pmtree
