// End-to-end integration: workload generation -> mapping -> the batch
// cost kernel / per-access cost / cycle engine must all tell one
// consistent story, and the applications must compose with every mapping.
#include <gtest/gtest.h>

#include "pmtree/pmtree.hpp"
#include "test_mappings.hpp"

namespace pmtree {
namespace {

TEST(Integration, AllAccountingLayersAgree) {
  const CompleteBinaryTree tree(13);
  const ColorMapping map(tree, 6, 3);
  const auto workload = Workload::mixed(tree, 9, 300, 4242);

  // The batch kernel over the CSR-packed workload.
  std::vector<Node> nodes;
  std::vector<std::uint64_t> offsets{0};
  for (const auto& access : workload.accesses()) {
    ASSERT_FALSE(access.empty());
    nodes.insert(nodes.end(), access.begin(), access.end());
    offsets.push_back(nodes.size());
  }
  std::vector<std::uint64_t> batch(workload.size());
  conflicts_batch(map, nodes, offsets, batch);

  // The cycle engine with one access in flight at a time: an access's
  // latency is its rounds, one more than its conflicts.
  const auto serial = engine::CycleEngine(map).run(
      workload, engine::ArrivalSchedule::serialized());
  ASSERT_EQ(serial.records.size(), workload.size());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const std::uint64_t per_access = conflicts(map, workload[i]);
    EXPECT_EQ(batch[i], per_access) << "access " << i;
    EXPECT_EQ(serial.records[i].latency() - 1, per_access) << "access " << i;
  }
}

TEST(Integration, HeapDictionaryAndIndexComposeWithEveryMapping) {
  const std::uint32_t levels = 9;
  const CompleteBinaryTree tree(levels);
  const ColorMapping color(tree, levels, 3);
  const LabelTreeMapping label(tree, color.num_modules());
  const ModuloMapping naive(tree, color.num_modules());

  ParallelHeap heap(levels);
  Rng rng(7);
  std::vector<std::vector<Node>> accesses;
  for (int i = 0; i < 100; ++i) {
    accesses.push_back(
        heap.insert(static_cast<ParallelHeap::Key>(rng.below(1000))));
  }
  ASSERT_TRUE(heap.is_valid_heap());

  for (const TreeMapping* map :
       {static_cast<const TreeMapping*>(&color),
        static_cast<const TreeMapping*>(&label),
        static_cast<const TreeMapping*>(&naive)}) {
    for (const auto& access : accesses) {
      EXPECT_GE(rounds(*map, access), 1u) << map->name();
    }
  }

  // COLOR specifically: every heap path is one round.
  for (const auto& access : accesses) {
    EXPECT_EQ(rounds(color, access), 1u);
  }
}

TEST(Integration, RangeIndexThroughTraceAndLatency) {
  std::vector<RangeIndex::Key> keys;
  for (int i = 0; i < 700; ++i) keys.push_back(2 * i + 1);
  const RangeIndex index(keys);
  const auto map = make_optimal_color_mapping(index.tree(), 15);

  std::vector<std::vector<Node>> accesses;
  for (int q = 0; q < 50; ++q) {
    const auto result = index.query(10 * q, 10 * q + 200);
    if (!result.accessed.empty()) accesses.push_back(result.accessed);
  }
  ASSERT_FALSE(accesses.empty());
  // Overhead: rounds spent versus a perfectly spread layout, which serves
  // a D-node query in ceil(D / M) rounds.
  std::uint64_t spent = 0;
  std::uint64_t ideal = 0;
  for (const auto& access : accesses) {
    spent += rounds(map, access);
    ideal += ceil_div(access.size(), map.num_modules());
  }
  EXPECT_GT(spent, 0u);
  const double overhead =
      static_cast<double>(spent) / static_cast<double>(ideal);
  EXPECT_GE(overhead, 1.0);
  // Theorem 6 guarantees a bounded overhead: 4D/M + c rounds on D-node
  // queries, far below the D-round serialization a conflict-blind layout
  // can hit.
  EXPECT_LT(overhead, 60.0);
}

TEST(Integration, VerdictsComposeAcrossMappings) {
  const CompleteBinaryTree tree(10);
  const ColorMapping color(tree, 5, 2);
  Rng rng(11);
  const PermutedMapping shuffled = PermutedMapping::shuffled(color, rng);
  // Permutation preserves all the theorem verdicts.
  EXPECT_TRUE(verify_cf_elementary(shuffled, 3, 5).ok);
  EXPECT_TRUE(verify_optimality_witness(shuffled, 5, 2).ok);
}

}  // namespace
}  // namespace pmtree
