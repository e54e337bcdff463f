// Differential tests: the cycle trajectory (CycleEngine) must agree with
// the paper's closed-form cost — the busiest module's occupancy, computed
// here from cost.hpp rounds() and the mapping's colors — for randomized
// (mapping, workload) pairs across every template family:
//
//   * all-at-once arrivals: the completion cycle == rounds() of the
//     flattened workload (the batch makespan), and each module's served
//     total and queue high-water mark == the requests routed to it;
//   * serialized arrivals: each access's latency == rounds(), and the
//     completion cycle == their sum;
//   * open-loop schedules are sandwiched between the two extremes.
#include "pmtree/engine/engine.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/util/bits.hpp"
#include "pmtree/util/rng.hpp"
#include "test_mappings.hpp"

namespace pmtree {
namespace {

using engine::ArrivalSchedule;
using engine::CycleEngine;
using engine::EngineResult;

/// A random mapping drawn from the repertoire the benches compare.
std::unique_ptr<TreeMapping> random_mapping(const CompleteBinaryTree& tree,
                                            Rng& rng) {
  switch (rng.below(5)) {
    case 0: {
      const std::uint32_t M = 7 + static_cast<std::uint32_t>(rng.below(3)) * 8;
      return std::make_unique<ColorMapping>(
          make_optimal_color_mapping(tree, M));
    }
    case 1:
      return std::make_unique<ModuloMapping>(
          tree, 3 + static_cast<std::uint32_t>(rng.below(14)));
    case 2:
      return std::make_unique<LevelShiftMapping>(
          tree, 3 + static_cast<std::uint32_t>(rng.below(14)));
    case 3:
      return std::make_unique<RandomMapping>(
          tree, 3 + static_cast<std::uint32_t>(rng.below(14)), rng());
    default:
      return std::make_unique<LevelModMapping>(
          tree, 2 + static_cast<std::uint32_t>(rng.below(8)));
  }
}

/// A random workload of the requested template family.
Workload random_workload(const CompleteBinaryTree& tree, int family, Rng& rng) {
  const std::size_t count = 5 + rng.below(20);
  const std::uint64_t seed = rng();
  switch (family) {
    case 0: {  // S: valid subtree sizes 2^t - 1
      const std::uint64_t K = pow2(1 + static_cast<std::uint32_t>(rng.below(4))) - 1;
      return Workload::subtrees(tree, K, count, seed);
    }
    case 1: {  // P
      const std::uint64_t K = 1 + rng.below(tree.levels());
      return Workload::paths(tree, K, count, seed);
    }
    case 2: {  // L
      const std::uint64_t K = 1 + rng.below(16);
      return Workload::level_runs(tree, K, count, seed);
    }
    default: {  // composite C(D, c)
      const std::uint64_t c = 2 + rng.below(3);
      const std::uint64_t D = c * (3 + rng.below(10));
      return Workload::composites(tree, D, c, count, seed);
    }
  }
}

/// One randomized pair, all invariants.
void check_pair(const TreeMapping& mapping, const Workload& workload) {
  SCOPED_TRACE("mapping=" + mapping.name() +
               " accesses=" + std::to_string(workload.size()));
  const CycleEngine eng(mapping);

  // All-at-once: every request is queued at cycle 0, so each module
  // serves — and peaks at — exactly the requests routed to it, and the
  // batch drains with its busiest module: rounds() of the whole workload
  // taken as one access.
  std::vector<Node> flat;
  for (const Workload::Access& access : workload.accesses()) {
    flat.insert(flat.end(), access.begin(), access.end());
  }
  std::vector<Color> colors(flat.size());
  mapping.color_of_batch(flat, colors);
  std::vector<std::uint64_t> routed(mapping.num_modules(), 0);
  for (const Color c : colors) routed[c] += 1;
  const EngineResult batch = eng.run(workload, ArrivalSchedule::all_at_once());
  ASSERT_EQ(batch.completion_cycle, rounds(mapping, flat));
  ASSERT_EQ(batch.requests, flat.size());
  ASSERT_EQ(batch.served, routed);
  ASSERT_EQ(batch.queue_high_water, routed);

  // Serialized: one access in flight, so each latency is its rounds().
  const EngineResult serial = eng.run(workload, ArrivalSchedule::serialized());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const std::uint64_t expect = rounds(mapping, workload[i]);
    ASSERT_EQ(serial.records[i].latency(), expect) << "access " << i;
    total += expect;
  }
  ASSERT_EQ(serial.completion_cycle, total);

  // Overlap only helps: the batch drains no later than the serialized
  // engine, and any open-loop schedule lands in between.
  ASSERT_LE(batch.completion_cycle, serial.completion_cycle);
  const EngineResult paced = eng.run(workload, ArrivalSchedule::fixed_rate(2));
  ASSERT_GE(paced.completion_cycle, batch.completion_cycle);
  const EngineResult burst = eng.run(workload, ArrivalSchedule::bursty(4, 8));
  ASSERT_GE(burst.completion_cycle, batch.completion_cycle);
}

class EngineDifferential : public ::testing::TestWithParam<int> {};

TEST_P(EngineDifferential, AgreesWithClosedFormsOn100RandomPairs) {
  const int family = GetParam();
  Rng rng(0xE16D1FFu + static_cast<std::uint64_t>(family));
  for (int trial = 0; trial < 100; ++trial) {
    const CompleteBinaryTree tree(
        6 + static_cast<std::uint32_t>(rng.below(7)));
    const auto mapping = random_mapping(tree, rng);
    const Workload workload = random_workload(tree, family, rng);
    check_pair(*mapping, workload);
  }
}

std::string family_name(const ::testing::TestParamInfo<int>& param_info) {
  switch (param_info.param) {
    case 0: return "S";
    case 1: return "P";
    case 2: return "L";
    default: return "Composite";
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, EngineDifferential,
                         ::testing::Values(0, 1, 2, 3), family_name);

TEST(EngineDifferential, EmptyWorkload) {
  const CompleteBinaryTree tree(6);
  const ModuloMapping map(tree, 5);
  const CycleEngine eng(map);
  const EngineResult r = eng.run(Workload{}, ArrivalSchedule::all_at_once());
  EXPECT_EQ(r.completion_cycle, 0u);
  EXPECT_EQ(r.accesses, 0u);
  EXPECT_EQ(r.busy_cycles, 0u);
}

TEST(EngineDifferential, EmptyAccessesCompleteInstantly) {
  const CompleteBinaryTree tree(6);
  const ModuloMapping map(tree, 5);
  const CycleEngine eng(map);
  const Workload workload(std::vector<Workload::Access>{
      {}, {node_at(0), node_at(5)}, {}});
  for (const auto& schedule :
       {ArrivalSchedule::all_at_once(), ArrivalSchedule::serialized(),
        ArrivalSchedule::fixed_rate(3)}) {
    const EngineResult r = eng.run(workload, schedule);
    ASSERT_EQ(r.records[0].latency(), 0u) << schedule.name();
    ASSERT_EQ(r.records[2].latency(), 0u) << schedule.name();
    ASSERT_EQ(r.records[1].latency(), rounds(map, workload[1]));
  }
}

TEST(EngineDifferential, ConflictFreeBatchesStillQueueAcrossAccesses) {
  // Each path is individually conflict-free — one round when served alone
  // — but a batch of many paths piles onto the root-path modules, so all
  // at once it drains well after cycle 1.
  const CompleteBinaryTree tree(12);
  const ColorMapping map(tree, 6, 3);
  const Workload workload = Workload::paths(tree, 6, 200, 9);
  const CycleEngine eng(map);
  const EngineResult serial = eng.run(workload, ArrivalSchedule::serialized());
  for (const engine::AccessRecord& r : serial.records) {
    ASSERT_EQ(r.latency(), 1u);
  }
  const EngineResult batch = eng.run(workload, ArrivalSchedule::all_at_once());
  EXPECT_GT(batch.completion_cycle, 1u);
  // No batch beats a perfectly spread one: ceil(requests / M) cycles.
  EXPECT_GE(batch.completion_cycle,
            ceil_div(batch.requests, map.num_modules()));
}

TEST(EngineDifferential, FixedRateSlowerThanServiceIsConflictFreePerAccess) {
  // If arrivals are spaced further apart than any access's service time,
  // no access ever waits behind another: latency == rounds for every one.
  const CompleteBinaryTree tree(10);
  const ColorMapping map = make_optimal_color_mapping(tree, 15);
  const Workload workload = Workload::paths(tree, 8, 40, 11);
  std::uint64_t worst = 0;
  for (const auto& access : workload.accesses()) {
    worst = std::max(worst, rounds(map, access));
  }
  const CycleEngine eng(map);
  const EngineResult r =
      eng.run(workload, ArrivalSchedule::fixed_rate(worst));
  for (std::size_t i = 0; i < workload.size(); ++i) {
    ASSERT_EQ(r.records[i].latency(), rounds(map, workload[i]));
  }
}

TEST(EngineDifferential, MetricsRegistryReceivesTrajectory) {
  const CompleteBinaryTree tree(10);
  const ModuloMapping map(tree, 7);
  const Workload workload = Workload::mixed(tree, 7, 60, 3);
  engine::MetricsRegistry registry;
  const CycleEngine eng(map, &registry, "run1");
  const EngineResult r = eng.run(workload, ArrivalSchedule::all_at_once());
  ASSERT_NE(registry.find_counter("run1.requests"), nullptr);
  EXPECT_EQ(registry.find_counter("run1.requests")->value(), r.requests);
  EXPECT_EQ(registry.find_counter("run1.cycles")->value(), r.completion_cycle);
  ASSERT_NE(registry.find_histogram("run1.latency"), nullptr);
  EXPECT_EQ(registry.find_histogram("run1.latency")->count(), r.accesses);
  EXPECT_EQ(
      static_cast<std::uint64_t>(
          registry.find_gauge("run1.queue_high_water")->high_water()),
      r.max_queue_depth());
}

}  // namespace
}  // namespace pmtree
