// Differential property tests for the event-driven CycleEngine core.
//
// Both simulation paths (DESIGN.md §8) — the per-request recurrence for
// fault-free runs on every schedule, and the stepping loop under a
// non-empty fault plan — must reproduce the frozen seed loop
// (ReferenceEngine) bit for bit: completion cycles, latencies, served
// counts, high-water marks, busy cycles, and — under full sampling — the
// queue-depth histogram, on randomized (mapping, workload, schedule)
// triples across every template family. EngineOptions may only change
// what is *observed* (depth samples), never the trajectory.
#include "pmtree/engine/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/util/rng.hpp"
#include "engine_trajectory.hpp"
#include "reference_engine.hpp"
#include "test_mappings.hpp"

namespace pmtree {
namespace {

using engine::ArrivalSchedule;
using engine::CycleEngine;
using engine::EngineOptions;
using engine::EngineResult;
using engine::ReferenceEngine;
using engine::expect_same_trajectory;

using DepthSampling = EngineOptions::DepthSampling;

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
      const std::uint64_t K =
          pow2(1 + static_cast<std::uint32_t>(rng.below(4))) - 1;
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

/// A random schedule spanning both loop disciplines and bursty gaps (long
/// gaps exercise the idle skip, deep bursts long backlogs).
ArrivalSchedule random_schedule(Rng& rng) {
  switch (rng.below(4)) {
    case 0: return ArrivalSchedule::all_at_once();
    case 1: return ArrivalSchedule::serialized();
    case 2: return ArrivalSchedule::fixed_rate(rng.below(5));
    default:
      return ArrivalSchedule::bursty(1 + rng.below(8), 1 + rng.below(16));
  }
}

/// One randomized triple, both sampling modes against the reference.
void check_triple(const TreeMapping& mapping, const Workload& workload,
                  const ArrivalSchedule& schedule) {
  SCOPED_TRACE("mapping=" + mapping.name() + " schedule=" + schedule.name() +
               " accesses=" + std::to_string(workload.size()));
  const ReferenceEngine oracle(mapping);
  const EngineResult want = oracle.run(workload, schedule);
  const CycleEngine eng(mapping);

  // Full sampling: the default overload, bit-identical including the
  // queue-depth histogram (idle modules' zeros included). Fault-free, so
  // the recurrence computes it on every schedule, serialized included.
  const EngineResult full = eng.run(workload, schedule);
  expect_same_trajectory(full, want);
  const std::uint64_t modules = mapping.num_modules();
  ASSERT_EQ(full.queue_depth.count(), full.busy_cycles * modules);

  // Sampling off: same trajectory and no depth samples at all.
  EngineOptions off;
  off.sampling = DepthSampling::kOff;
  const EngineResult fast = eng.run(workload, schedule, off);
  expect_same_trajectory(fast, want, /*compare_depths=*/false);
  ASSERT_TRUE(fast.queue_depth.empty());
}

class EventCoreDifferential : public ::testing::TestWithParam<int> {};

TEST_P(EventCoreDifferential, MatchesReferenceOn60RandomTriples) {
  const int family = GetParam();
  Rng rng(0xE18C04Eu + static_cast<std::uint64_t>(family));
  for (int trial = 0; trial < 60; ++trial) {
    const CompleteBinaryTree tree(6 + static_cast<std::uint32_t>(rng.below(7)));
    const auto mapping = random_mapping(tree, rng);
    const Workload workload = random_workload(tree, family, rng);
    check_triple(*mapping, workload, random_schedule(rng));
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

INSTANTIATE_TEST_SUITE_P(AllFamilies, EventCoreDifferential,
                         ::testing::Values(0, 1, 2, 3), family_name);

TEST(EventCore, EmptyAndTrailingEmptyAccessesMatchReference) {
  // Empty accesses complete on arrival; in the closed loop the reference
  // observes one trailing all-idle cycle after admitting trailing empties
  // — the event core reproduces that accounting exactly.
  const CompleteBinaryTree tree(6);
  const ModuloMapping map(tree, 5);
  const Workload workload(std::vector<Workload::Access>{
      {}, {node_at(0), node_at(5), node_at(5)}, {}, {node_at(3)}, {}, {}});
  const ReferenceEngine oracle(map);
  const CycleEngine eng(map);
  for (const auto& schedule :
       {ArrivalSchedule::all_at_once(), ArrivalSchedule::serialized(),
        ArrivalSchedule::fixed_rate(3), ArrivalSchedule::bursty(2, 5)}) {
    SCOPED_TRACE(schedule.name());
    const EngineResult want = oracle.run(workload, schedule);
    expect_same_trajectory(eng.run(workload, schedule), want);
    EngineOptions off;
    off.sampling = DepthSampling::kOff;
    expect_same_trajectory(eng.run(workload, schedule, off), want,
                           /*compare_depths=*/false);
  }
}

TEST(EventCore, AllEmptyClosedLoopWorkload) {
  const CompleteBinaryTree tree(6);
  const ModuloMapping map(tree, 5);
  const Workload workload(std::vector<Workload::Access>{{}, {}, {}});
  const ReferenceEngine oracle(map);
  const CycleEngine eng(map);
  const EngineResult want = oracle.run(workload, ArrivalSchedule::serialized());
  expect_same_trajectory(eng.run(workload, ArrivalSchedule::serialized()), want);
}

TEST(EventCore, DeepBacklogMatchesReferenceOnBothPaths) {
  // A single all-at-once burst piles thousands of requests onto few
  // modules. Fault-free, both sampling modes run the recurrence. A plan
  // whose only fail-stop fires after the last completion changes nothing
  // but the path: the stepping loop then drains the same deep queues. All
  // of them match the cycle-stepped reference, depth histograms included.
  const CompleteBinaryTree tree(12);
  const ModuloMapping map(tree, 3);
  const Workload workload = Workload::paths(tree, 12, 300, 99);
  const ReferenceEngine oracle(map);
  const CycleEngine eng(map);
  for (const auto& schedule :
       {ArrivalSchedule::all_at_once(), ArrivalSchedule::bursty(100, 4)}) {
    SCOPED_TRACE(schedule.name());
    const EngineResult want = oracle.run(workload, schedule);
    EngineOptions off;
    off.sampling = DepthSampling::kOff;
    expect_same_trajectory(eng.run(workload, schedule, off), want,
                           /*compare_depths=*/false);
    expect_same_trajectory(eng.run(workload, schedule), want);

    fault::FaultPlan late;
    late.fail_stop(0, want.completion_cycle + 1);
    EngineOptions stepped;
    stepped.faults = &late;
    const EngineResult got = eng.run(workload, schedule, stepped);
    expect_same_trajectory(got, want);
    ASSERT_GT(got.max_queue_depth(), 1000u);
  }
}

}  // namespace
}  // namespace pmtree
