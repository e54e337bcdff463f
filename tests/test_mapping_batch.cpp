// Property tests for TreeMapping::color_of_batch: for every mapping type,
// retrieval mode and GammaVariant mutant, the batch kernel must agree
// color-for-color with scalar color_of on arbitrary node sets — the fast
// paths (table gathers, arithmetic loops, ColorMapping's block-aware
// resolver) are pure optimizations, never semantic forks.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/mapping/mapping.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/rng.hpp"
#include "test_mappings.hpp"

namespace pmtree {
namespace {

using internal::GammaVariant;

std::vector<Node> random_nodes(const CompleteBinaryTree& tree,
                               std::size_t count, Rng& rng) {
  std::vector<Node> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto level = static_cast<std::uint32_t>(rng.below(tree.levels()));
    out.push_back(Node{level, rng.below(pow2(level))});
  }
  return out;
}

/// Batch must equal scalar on empty spans, random sets, and sets biased
/// toward the deepest levels (where ColorMapping's chase is longest).
void expect_batch_matches_scalar(const TreeMapping& mapping,
                                 std::uint64_t seed) {
  const CompleteBinaryTree& tree = mapping.tree();
  Rng rng(seed);

  // Empty input: no touch of out.
  mapping.color_of_batch({}, {});

  std::vector<Node> nodes = random_nodes(mapping.tree(), 512, rng);
  // Deep-biased tail: the whole bottom level run plus a root-to-leaf path.
  const std::uint32_t bottom = tree.levels() - 1;
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(64, pow2(bottom)); ++i) {
    nodes.push_back(Node{bottom, i});
  }
  for (std::uint32_t j = 0; j < tree.levels(); ++j) {
    nodes.push_back(Node{j, pow2(j) - 1});
  }

  std::vector<Color> batch(nodes.size(), 0xdeadbeef);
  mapping.color_of_batch(nodes, batch);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ASSERT_EQ(batch[i], mapping.color_of(nodes[i]))
        << mapping.name() << " node " << to_string(nodes[i]) << " (#" << i
        << ")";
  }

  // colors_of is documented to route through the batch kernel.
  const std::vector<Color> routed = mapping.colors_of(nodes);
  ASSERT_EQ(routed, batch);
}

TEST(MappingBatch, BaselinesAgreeWithScalar) {
  const CompleteBinaryTree tree(12);
  expect_batch_matches_scalar(ModuloMapping(tree, 13), 1);
  expect_batch_matches_scalar(LevelShiftMapping(tree, 13), 2);
  expect_batch_matches_scalar(LevelModMapping(tree, 7), 3);
  expect_batch_matches_scalar(RandomMapping(tree, 13, 99), 4);
}

TEST(MappingBatch, LabelTreeAgreesWithScalarBothRetrievals) {
  const CompleteBinaryTree tree(14);
  for (const std::uint32_t M : {7u, 15u, 21u, 31u}) {
    expect_batch_matches_scalar(
        LabelTreeMapping(tree, M, LabelTreeMapping::Retrieval::kTable), M);
    expect_batch_matches_scalar(
        LabelTreeMapping(tree, M, LabelTreeMapping::Retrieval::kRecursive), M);
  }
}

TEST(MappingBatch, ColorMappingAgreesWithScalarAllModesAndVariants) {
  const CompleteBinaryTree tree(13);
  for (const auto variant : {GammaVariant::kCorrect,
                             GammaVariant::kIncludeChildRoot,
                             GammaVariant::kReversed}) {
    for (const auto retrieval : {ColorMapping::Retrieval::kLazy,
                                 ColorMapping::Retrieval::kBlockTable}) {
      expect_batch_matches_scalar(
          ColorMapping(tree, 6, 3, variant, retrieval), 7);
      expect_batch_matches_scalar(
          ColorMapping(tree, 5, 2, variant, retrieval), 8);
      // N == levels: a single block.
      expect_batch_matches_scalar(
          ColorMapping(tree, 13, 3, variant, retrieval), 9);
    }
  }
}

TEST(MappingBatch, ColorMappingDeepTreeBeyondTopTable) {
  // 40 levels with a small stride: the chase crosses many block
  // generations and the truncated top-color table (20 levels) cannot
  // cover the tree, so the table-assisted chase path is exercised.
  const CompleteBinaryTree tree(40);
  for (const auto variant : {GammaVariant::kCorrect,
                             GammaVariant::kIncludeChildRoot,
                             GammaVariant::kReversed}) {
    expect_batch_matches_scalar(ColorMapping(tree, 6, 3, variant), 11);
    expect_batch_matches_scalar(
        ColorMapping(tree, 6, 3, variant, ColorMapping::Retrieval::kBlockTable),
        12);
    // Stride 1: the longest possible chase (one level per generation).
    expect_batch_matches_scalar(ColorMapping(tree, 3, 2, variant), 13);
  }
  // k >= 20: the Sigma region alone exceeds the top-table cap.
  expect_batch_matches_scalar(ColorMapping(tree, 25, 21), 14);
}

TEST(MappingBatch, BasicEagerAndPermutedAgreeWithScalar) {
  const CompleteBinaryTree tree(10);
  expect_batch_matches_scalar(BasicColorMapping(tree, 10, 3), 21);

  const ColorMapping base(tree, 6, 3);
  expect_batch_matches_scalar(EagerColorMapping(base), 22);

  Rng rng(23);
  expect_batch_matches_scalar(PermutedMapping::shuffled(base, rng), 24);
}

TEST(MappingBatch, OptimalAndScaledFactoriesAgreeWithScalar) {
  const CompleteBinaryTree tree(16);
  expect_batch_matches_scalar(make_optimal_color_mapping(tree, 15), 31);
  expect_batch_matches_scalar(make_cf_mapping_for_modules(tree, 12, 2), 32);
}

// A mapping that does not override color_of_batch exercises the virtual
// base implementation (per-node loop).
class DefaultBatchMapping final : public TreeMapping {
 public:
  explicit DefaultBatchMapping(CompleteBinaryTree tree) : TreeMapping(tree) {}
  [[nodiscard]] Color color_of(Node n) const override {
    return static_cast<Color>(bfs_id(n) % 11);
  }
  [[nodiscard]] std::uint32_t num_modules() const noexcept override {
    return 11;
  }
  [[nodiscard]] std::string name() const override { return "default-batch"; }
};

TEST(MappingBatch, BaseClassDefaultAgreesWithScalar) {
  expect_batch_matches_scalar(DefaultBatchMapping(CompleteBinaryTree(11)), 41);
}

TEST(MappingBatch, PartialOutputSpanOnlyWritesPrefix) {
  const CompleteBinaryTree tree(10);
  const ColorMapping mapping(tree, 6, 3);
  Rng rng(51);
  const std::vector<Node> nodes = random_nodes(tree, 32, rng);
  std::vector<Color> out(nodes.size() + 8, 0xabcdef);
  mapping.color_of_batch(nodes, out);
  for (std::size_t i = nodes.size(); i < out.size(); ++i) {
    EXPECT_EQ(out[i], 0xabcdefu) << "batch wrote past nodes.size()";
  }
}

TEST(MappingBatch, ConcurrentFirstUseIsConsistent) {
  // The ColorMapping batch accelerator is built lazily on first use; many
  // threads racing on a cold mapping must all see coherent tables. Run
  // under TSan via the sanitizer suite.
  const CompleteBinaryTree tree(22);
  const ColorMapping mapping(tree, 6, 3);
  Rng rng(61);
  const std::vector<Node> nodes = random_nodes(tree, 2048, rng);

  std::vector<Color> expected(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    expected[i] = mapping.color_of(nodes[i]);
  }

  constexpr unsigned kThreads = 4;
  std::vector<std::vector<Color>> got(kThreads,
                                      std::vector<Color>(nodes.size()));
  {
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        mapping.color_of_batch(nodes, got[t]);
      });
    }
    for (auto& th : pool) th.join();
  }
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], expected) << "thread " << t;
  }
}

TEST(MappingBatch, CopiesShareTheAccelerator) {
  const CompleteBinaryTree tree(18);
  const ColorMapping original(tree, 6, 3);
  Rng rng(71);
  const std::vector<Node> nodes = random_nodes(tree, 256, rng);

  std::vector<Color> before(nodes.size());
  original.color_of_batch(nodes, before);  // builds the accelerator

  const ColorMapping copy = original;  // copy after build: shares tables
  std::vector<Color> after(nodes.size());
  copy.color_of_batch(nodes, after);
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace pmtree
