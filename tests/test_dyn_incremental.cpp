// IncrementalColorer differential: after every randomized mutation batch,
// the colorer's colors must equal a from-scratch mapping built over the
// DynamicTree's current height (DESIGN.md §16). The colorer owns one
// mapping over the whole envelope, so this checks the property it rests
// on: COLOR and LABEL-TREE are coordinate-pure, and a taller tree keeps a
// shorter tree's colors. COLOR's reference is the level-by-level
// simulation behind ColorMapping::materialize(), which the colorer's
// scalar chase does not share; LABEL-TREE's is the recursive retrieval
// (the colorer uses the table).
//
// 64 seeded configurations (32 COLOR x (N, k), 32 LABEL-TREE x M), each
// driven through 25 mutation batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/dyn/incremental.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/tree/node.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree::dyn {
namespace {

constexpr std::uint32_t kEnvelopeLevels = 9;

/// One batch of random structural mutations through the tree's two
/// mutators, insert_node and remove_leaf; returns the touched set (every
/// coordinate a serve batch would hand the colorer).
std::vector<Node> mutate_batch(DynamicTree& tree, Rng& rng) {
  std::vector<Node> touched;
  const std::uint64_t ops = rng.between(5, 20);
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.below(5);
    const std::vector<Node> live = tree.live_nodes();
    const Node pick = live[rng.below(live.size())];
    if (kind <= 1) {  // append a leaf under `pick`: left child, else right
      for (const Node child : {left_child(pick), right_child(pick)}) {
        if (tree.insert_node(child) == DynStatus::kOk) {
          touched.push_back(child);
          break;
        }
      }
    } else if (kind == 2) {  // remove `pick` if it is a leaf
      if (tree.remove_leaf(pick) == DynStatus::kOk) touched.push_back(pick);
    } else if (kind == 3) {  // split: grow a small subtree under `pick`
      const auto levels = static_cast<std::uint32_t>(rng.between(2, 3));
      if (pick.level + levels > tree.max_levels()) continue;
      // Top-down, so every parent is live before its children.
      for (std::uint32_t d = 0; d < levels; ++d) {
        for (std::uint64_t i = 0; i < pow2(d); ++i) {
          const Node n{pick.level + d, (pick.index << d) + i};
          (void)tree.insert_node(n);  // kOccupied keeps a live node
          touched.push_back(n);
        }
      }
    } else {  // merge: prune every live strict descendant of `pick`
      // Bottom-up, so every removal is a leaf removal.
      for (std::uint32_t j = tree.levels(); j-- > pick.level + 1;) {
        const std::uint32_t d = j - pick.level;
        for (std::uint64_t i = 0; i < pow2(d); ++i) {
          (void)tree.remove_leaf(Node{j, (pick.index << d) + i});
        }
      }
      touched.push_back(pick);
    }
  }
  return touched;
}

/// Builds the from-scratch reference mapping of one tree shape.
using Reference =
    std::function<std::unique_ptr<TreeMapping>(CompleteBinaryTree)>;

/// Drives `colorer` through 25 mutation batches and asserts its colors
/// equal the reference over the tree's current height after every batch,
/// over the live set and the touched coordinates that fit in it, via both
/// the scalar and the batch read paths. Raises `tallest` to the largest
/// height the tree reached.
void run_differential(IncrementalColorer colorer, const Reference& reference,
                      std::uint64_t seed, std::uint32_t& tallest) {
  const CompleteBinaryTree envelope(kEnvelopeLevels);
  ASSERT_EQ(colorer.tree(), envelope);
  const std::unique_ptr<TreeMapping> whole = reference(envelope);
  ASSERT_EQ(colorer.num_modules(), whole->num_modules());
  Rng rng(seed);
  DynamicTree tree(kEnvelopeLevels);
  for (int batch = 0; batch < 25; ++batch) {
    std::vector<Node> touched = mutate_batch(tree, rng);
    // The serve barrier touches the batch's node set (reads + applied
    // writes); erased coordinates stay touched — colors are pure
    // coordinate functions, so reading them must stay exact too.
    colorer.touch(std::span<const Node>(touched.data(), touched.size()));
    ASSERT_EQ(colorer.tree(), envelope);
    tallest = std::max(tallest, tree.levels());

    const std::unique_ptr<TreeMapping> scratch =
        reference(CompleteBinaryTree(tree.levels()));
    std::vector<Node> check = tree.live_nodes();
    for (const Node n : touched) {
      if (scratch->tree().contains(n)) check.push_back(n);
    }
    std::vector<Color> got(check.size());
    colorer.color_of_batch(std::span<const Node>(check.data(), check.size()),
                           std::span<Color>(got.data(), got.size()));
    for (std::size_t i = 0; i < check.size(); ++i) {
      ASSERT_EQ(got[i], scratch->color_of(check[i]))
          << "seed " << seed << " batch " << batch << " height "
          << tree.levels() << " node (" << check[i].level << ", "
          << check[i].index << ")";
      ASSERT_EQ(colorer.color_of(check[i]), got[i]);
    }

    // Cold reads (never-touched coordinates) are total and exact too,
    // the envelope's deepest level included.
    for (int probe = 0; probe < 17; ++probe) {
      const auto level =
          probe == 16 ? kEnvelopeLevels - 1
                      : static_cast<std::uint32_t>(rng.below(kEnvelopeLevels));
      const Node n{level, rng.below(pow2(level))};
      ASSERT_EQ(colorer.color_of(n), whole->color_of(n));
    }
  }
  EXPECT_GT(colorer.nodes_colored(), 0u);
  EXPECT_GE(colorer.touches(), colorer.nodes_colored());
}

struct ColorConfig {
  std::uint32_t N, k;
};

class DynIncrementalColor : public ::testing::TestWithParam<ColorConfig> {};

TEST_P(DynIncrementalColor, MatchesFromScratchRebuildEveryBatch) {
  const CompleteBinaryTree envelope(kEnvelopeLevels);
  const auto [N, k] = GetParam();
  const Reference reference = [N, k](CompleteBinaryTree shape) {
    return std::make_unique<EagerColorMapping>(ColorMapping(shape, N, k));
  };
  std::uint32_t tallest = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    run_differential(IncrementalColorer::color(envelope, N, k), reference,
                     0xC0105000 + seed, tallest);
  }
  // The generator reaches the envelope's last level, so the differential
  // covers every level the colorer can be asked for.
  EXPECT_EQ(tallest, kEnvelopeLevels);
}

INSTANTIATE_TEST_SUITE_P(Configs, DynIncrementalColor,
                         ::testing::Values(ColorConfig{4, 2}, ColorConfig{5, 3},
                                           ColorConfig{6, 2},
                                           ColorConfig{7, 4}),
                         [](const auto& param) {
                           std::string name = "N";
                           name += std::to_string(param.param.N);
                           name += "k";
                           name += std::to_string(param.param.k);
                           return name;
                         });

class DynIncrementalLabel : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DynIncrementalLabel, MatchesFromScratchRebuildEveryBatch) {
  const CompleteBinaryTree envelope(kEnvelopeLevels);
  const std::uint32_t M = GetParam();
  const Reference reference = [M](CompleteBinaryTree shape) {
    return std::make_unique<LabelTreeMapping>(
        shape, M, LabelTreeMapping::Retrieval::kRecursive);
  };
  std::uint32_t tallest = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    run_differential(IncrementalColorer::label_tree(envelope, M), reference,
                     0x1ABE1000 + seed, tallest);
  }
  EXPECT_EQ(tallest, kEnvelopeLevels);
}

INSTANTIATE_TEST_SUITE_P(Configs, DynIncrementalLabel,
                         ::testing::Values(3u, 5u, 8u, 13u),
                         [](const auto& param) {
                           std::string name = "M";
                           name += std::to_string(param.param);
                           return name;
                         });

TEST(DynIncremental, NodesColoredCountsDistinctTouches) {
  const CompleteBinaryTree envelope(kEnvelopeLevels);
  IncrementalColorer colorer = IncrementalColorer::color(envelope, 5, 2);
  EXPECT_EQ(colorer.tree(), envelope);
  EXPECT_EQ(colorer.nodes_colored(), 0u);
  EXPECT_EQ(colorer.touches(), 0u);
  // Touch every node of the envelope, deepest level first: each counts
  // once, whatever the order.
  for (std::uint32_t j = envelope.levels(); j-- > 0;) {
    for (std::uint64_t i = 0; i < pow2(j); ++i) {
      colorer.touch(Node{j, i});
    }
  }
  EXPECT_EQ(colorer.nodes_colored(), envelope.size());
  EXPECT_EQ(colorer.touches(), envelope.size());
  // Re-touching everything counts touches, not nodes.
  for (std::uint32_t j = 0; j < envelope.levels(); ++j) {
    for (std::uint64_t i = 0; i < pow2(j); ++i) {
      colorer.touch(Node{j, i});
    }
  }
  EXPECT_EQ(colorer.nodes_colored(), envelope.size());
  EXPECT_EQ(colorer.touches(), 2 * envelope.size());
  EXPECT_EQ(colorer.tree(), envelope);
}

}  // namespace
}  // namespace pmtree::dyn
