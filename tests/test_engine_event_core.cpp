// Differential property tests for the event-driven CycleEngine core.
//
// The rebuilt hot loop (flat arena queues, active-module worklist, bulk
// cycle skipping — DESIGN.md §8) must reproduce the frozen PR-1 loop
// (ReferenceEngine) bit for bit: completion cycles, latencies, served
// counts, high-water marks, busy cycles, and — under full sampling — the
// queue-depth histogram, on randomized (mapping, workload, schedule)
// triples across every template family. EngineOptions may only change
// what is *observed* (depth samples), never the trajectory; strided
// sampling must be a deterministic function of (workload, schedule,
// stride), independent of how the engine chose to step.
#include "pmtree/engine/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/util/rng.hpp"
#include "reference_engine.hpp"

namespace pmtree {
namespace {

using engine::ArrivalSchedule;
using engine::CycleEngine;
using engine::EngineOptions;
using engine::EngineResult;
using engine::Histogram;
using engine::ReferenceEngine;

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
/// gaps exercise the idle skip, deep bursts the busy-span skip).
ArrivalSchedule random_schedule(Rng& rng) {
  switch (rng.below(4)) {
    case 0: return ArrivalSchedule::all_at_once();
    case 1: return ArrivalSchedule::serialized();
    case 2: return ArrivalSchedule::fixed_rate(rng.below(5));
    default:
      return ArrivalSchedule::bursty(1 + rng.below(8), 1 + rng.below(16));
  }
}

void expect_same_histogram(const Histogram& got, const Histogram& want) {
  ASSERT_EQ(got.count(), want.count());
  ASSERT_EQ(got.sum(), want.sum());
  ASSERT_EQ(got.min(), want.min());
  ASSERT_EQ(got.max(), want.max());
  const auto gb = got.buckets();
  const auto wb = want.buckets();
  ASSERT_EQ(gb.size(), wb.size());
  for (std::size_t i = 0; i < gb.size(); ++i) {
    ASSERT_EQ(gb[i].upper, wb[i].upper) << "bucket " << i;
    ASSERT_EQ(gb[i].count, wb[i].count) << "bucket " << i;
  }
}

/// Full bit-identity of two trajectories; `compare_depths` is off when
/// `got` ran under reduced sampling (its depth histogram is then checked
/// separately).
void expect_same_trajectory(const EngineResult& got, const EngineResult& want,
                            bool compare_depths) {
  ASSERT_EQ(got.accesses, want.accesses);
  ASSERT_EQ(got.requests, want.requests);
  ASSERT_EQ(got.completion_cycle, want.completion_cycle);
  ASSERT_EQ(got.busy_cycles, want.busy_cycles);
  ASSERT_EQ(got.served, want.served);
  ASSERT_EQ(got.queue_high_water, want.queue_high_water);
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    ASSERT_EQ(got.records[i].id, want.records[i].id) << "access " << i;
    ASSERT_EQ(got.records[i].requests, want.records[i].requests)
        << "access " << i;
    ASSERT_EQ(got.records[i].arrival, want.records[i].arrival)
        << "access " << i;
    ASSERT_EQ(got.records[i].completion, want.records[i].completion)
        << "access " << i;
  }
  expect_same_histogram(got.latency, want.latency);
  if (compare_depths) expect_same_histogram(got.queue_depth, want.queue_depth);
}

/// One randomized triple, every sampling mode against the reference.
void check_triple(const TreeMapping& mapping, const Workload& workload,
                  const ArrivalSchedule& schedule, Rng& rng) {
  SCOPED_TRACE("mapping=" + mapping.name() + " schedule=" + schedule.name() +
               " accesses=" + std::to_string(workload.size()));
  const ReferenceEngine oracle(mapping);
  const EngineResult want = oracle.run(workload, schedule);
  const CycleEngine eng(mapping);

  // Full sampling: the default overload, bit-identical including the
  // queue-depth histogram (idle modules' zeros included).
  const EngineResult full = eng.run(workload, schedule);
  expect_same_trajectory(full, want, /*compare_depths=*/true);
  const std::uint64_t modules = mapping.num_modules();
  ASSERT_EQ(full.queue_depth.count(), full.busy_cycles * modules);

  // Sampling off: same trajectory via the bulk cycle-skip path, no depth
  // samples at all.
  EngineOptions off;
  off.sampling = DepthSampling::kOff;
  const EngineResult fast = eng.run(workload, schedule, off);
  expect_same_trajectory(fast, want, /*compare_depths=*/false);
  ASSERT_TRUE(fast.queue_depth.empty());

  // Strided sampling: same trajectory, and the sample count is exactly
  // one per module per stride-th busy cycle — proving skipped spans
  // reconstructed their samples instead of dropping them.
  EngineOptions strided;
  strided.sampling = DepthSampling::kStrided;
  strided.sample_stride = 1 + rng.below(7);
  const EngineResult sampled = eng.run(workload, schedule, strided);
  expect_same_trajectory(sampled, want, /*compare_depths=*/false);
  const std::uint64_t expect_samples =
      (sampled.busy_cycles + strided.sample_stride - 1) /
      strided.sample_stride * modules;
  ASSERT_EQ(sampled.queue_depth.count(), expect_samples)
      << "stride " << strided.sample_stride;

  // Stride 1 samples every busy cycle: the histogram must equal the full
  // sampling mode's exactly.
  EngineOptions stride1;
  stride1.sampling = DepthSampling::kStrided;
  stride1.sample_stride = 1;
  const EngineResult dense = eng.run(workload, schedule, stride1);
  expect_same_trajectory(dense, want, /*compare_depths=*/true);
}

class EventCoreDifferential : public ::testing::TestWithParam<int> {};

TEST_P(EventCoreDifferential, MatchesReferenceOn60RandomTriples) {
  const int family = GetParam();
  Rng rng(0xE18C04Eu + static_cast<std::uint64_t>(family));
  for (int trial = 0; trial < 60; ++trial) {
    const CompleteBinaryTree tree(6 + static_cast<std::uint32_t>(rng.below(7)));
    const auto mapping = random_mapping(tree, rng);
    const Workload workload = random_workload(tree, family, rng);
    check_triple(*mapping, workload, random_schedule(rng), rng);
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
  Rng rng(7);
  for (const auto& schedule :
       {ArrivalSchedule::all_at_once(), ArrivalSchedule::serialized(),
        ArrivalSchedule::fixed_rate(3), ArrivalSchedule::bursty(2, 5)}) {
    SCOPED_TRACE(schedule.name());
    const EngineResult want = oracle.run(workload, schedule);
    expect_same_trajectory(eng.run(workload, schedule), want, true);
    EngineOptions off;
    off.sampling = DepthSampling::kOff;
    expect_same_trajectory(eng.run(workload, schedule, off), want, false);
  }
}

TEST(EventCore, AllEmptyClosedLoopWorkload) {
  const CompleteBinaryTree tree(6);
  const ModuloMapping map(tree, 5);
  const Workload workload(std::vector<Workload::Access>{{}, {}, {}});
  const ReferenceEngine oracle(map);
  const CycleEngine eng(map);
  const EngineResult want = oracle.run(workload, ArrivalSchedule::serialized());
  expect_same_trajectory(eng.run(workload, ArrivalSchedule::serialized()), want,
                         true);
}

TEST(EventCore, DeepBacklogExercisesLongSkipSpans) {
  // A single all-at-once burst piles thousands of requests onto few
  // modules: with sampling off, the whole drain is a handful of bulk
  // spans, and the trajectory still matches the cycle-stepped reference.
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
    expect_same_trajectory(eng.run(workload, schedule, off), want, false);
    EngineOptions strided;
    strided.sampling = DepthSampling::kStrided;
    strided.sample_stride = 64;
    expect_same_trajectory(eng.run(workload, schedule, strided), want, false);
  }
}

TEST(EventCore, StrideZeroIsClampedToOne) {
  const CompleteBinaryTree tree(8);
  const ModuloMapping map(tree, 7);
  const Workload workload = Workload::mixed(tree, 7, 40, 5);
  const CycleEngine eng(map);
  EngineOptions opts;
  opts.sampling = DepthSampling::kStrided;
  opts.sample_stride = 0;  // documented: clamped to 1
  const EngineResult got =
      eng.run(workload, ArrivalSchedule::all_at_once(), opts);
  const EngineResult full = eng.run(workload, ArrivalSchedule::all_at_once());
  expect_same_trajectory(got, full, /*compare_depths=*/true);
}

}  // namespace
}  // namespace pmtree
