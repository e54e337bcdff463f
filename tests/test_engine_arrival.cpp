// ArrivalSchedule contract tests: degenerate-parameter guards (bursty
// gap 0 degenerates to all-at-once exactly as fixed_rate(0) does, burst 0
// is normalized to 1), the explicit per-access schedule the serve layer
// dispatches dynamically formed batches through, and the rejection of
// malformed explicit schedules in every build type.
#include "pmtree/engine/arrival.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "pmtree/engine/engine.hpp"
#include "pmtree/engine/session.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/pms/workload.hpp"
#include "engine_trajectory.hpp"
#include "reference_engine.hpp"

namespace pmtree {
namespace {

using engine::ArrivalSchedule;
using engine::CycleEngine;
using engine::EngineOptions;
using engine::EngineResult;
using engine::EngineSession;
using engine::ReferenceEngine;
using engine::expect_same_trajectory;

TEST(ArrivalSchedule, BurstyZeroGapDegeneratesToAllAtOnce) {
  // Regression for the degenerate gap == 0: every burst is due at cycle 0,
  // so arrivals — and the whole engine trajectory — match all-at-once.
  const ArrivalSchedule degenerate = ArrivalSchedule::bursty(8, 0);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(degenerate.arrival_cycle(i), 0u);
  }

  const CompleteBinaryTree tree(10);
  const ColorMapping map = make_optimal_color_mapping(tree, 15);
  const Workload workload = Workload::mixed(tree, 7, 60, 5);
  const CycleEngine eng(map);
  const ReferenceEngine seed(map);
  const EngineResult want = eng.run(workload, ArrivalSchedule::all_at_once());
  expect_same_trajectory(eng.run(workload, degenerate), want);
  // The seed loop agrees, so the guard is a property of the schedule, not
  // of either engine's idle-gap handling.
  expect_same_trajectory(seed.run(workload, degenerate), want);
}

TEST(ArrivalSchedule, BurstyZeroBurstNormalizesToOne) {
  // burst 0 is normalized to 1, which makes bursty(1, gap) == fixed_rate(gap).
  const ArrivalSchedule normalized = ArrivalSchedule::bursty(0, 3);
  const ArrivalSchedule fixed = ArrivalSchedule::fixed_rate(3);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(normalized.arrival_cycle(i), fixed.arrival_cycle(i));
  }
}

TEST(ArrivalSchedule, ExplicitCyclesAreReturnedVerbatim) {
  const std::vector<std::uint64_t> cycles{0, 0, 3, 7, 7, 20};
  const ArrivalSchedule schedule = ArrivalSchedule::explicit_cycles(cycles);
  EXPECT_FALSE(schedule.closed_loop());
  EXPECT_EQ(schedule.kind(), ArrivalSchedule::Kind::kExplicit);
  EXPECT_EQ(schedule.name(), "explicit(n=6)");
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    EXPECT_EQ(schedule.arrival_cycle(i), cycles[i]);
  }
}

TEST(ArrivalSchedule, ExplicitMatchesEquivalentClosedForms) {
  // An explicit schedule spelling out fixed_rate / all-at-once arrivals
  // reproduces those trajectories bit for bit on both engines.
  const CompleteBinaryTree tree(10);
  const ModuloMapping map(tree, 9);
  const Workload workload = Workload::mixed(tree, 7, 40, 13);
  const CycleEngine eng(map);
  const ReferenceEngine seed(map);

  for (const std::uint64_t period : {std::uint64_t{0}, std::uint64_t{2},
                                     std::uint64_t{9}}) {
    SCOPED_TRACE("period=" + std::to_string(period));
    std::vector<std::uint64_t> cycles(workload.size());
    for (std::size_t i = 0; i < cycles.size(); ++i) cycles[i] = i * period;
    const ArrivalSchedule explicit_schedule =
        ArrivalSchedule::explicit_cycles(cycles);
    const EngineResult want =
        eng.run(workload, ArrivalSchedule::fixed_rate(period));
    expect_same_trajectory(eng.run(workload, explicit_schedule), want);
    expect_same_trajectory(seed.run(workload, explicit_schedule), want);
  }
}

TEST(ArrivalSchedule, ExplicitWithIdleGapsAndTies) {
  // Ties arrive together; long gaps are idle-skipped, not simulated
  // cycle by cycle — completions still line up with per-access arithmetic.
  const CompleteBinaryTree tree(8);
  const ModuloMapping map(tree, 5);
  // Three single-node accesses on the same module: arrivals 0, 0, 1000.
  const Node n = v(3, 4);
  const Workload workload(std::vector<Workload::Access>{{n}, {n}, {n}});
  std::vector<std::uint64_t> cycles{0, 0, 1000};
  const CycleEngine eng(map);
  const EngineResult got =
      eng.run(workload, ArrivalSchedule::explicit_cycles(cycles));
  // FIFO on one module: served at cycles 1, 2; the straggler at 1001.
  EXPECT_EQ(got.records[0].completion, 1u);
  EXPECT_EQ(got.records[1].completion, 2u);
  EXPECT_EQ(got.records[2].arrival, 1000u);
  EXPECT_EQ(got.records[2].completion, 1001u);
  EXPECT_EQ(got.completion_cycle, 1001u);
  EXPECT_EQ(got.busy_cycles, 3u);
}

// Malformed explicit schedules are rejected in every build type, on both
// engine paths: a decreasing schedule at construction, a short one when a
// run reaches the engine.

TEST(ArrivalSchedule, ExplicitRejectsDecreasingCycles) {
  EXPECT_THROW((void)ArrivalSchedule::explicit_cycles({5, 4, 3, 2, 1, 0, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW((void)ArrivalSchedule::explicit_cycles({0, 3, 2}),
               std::invalid_argument);
  EXPECT_NO_THROW((void)ArrivalSchedule::explicit_cycles({}));
  EXPECT_NO_THROW((void)ArrivalSchedule::explicit_cycles({4, 4, 9}));
}

TEST(ArrivalSchedule, EngineRejectsScheduleShorterThanWorkload) {
  const CompleteBinaryTree tree(8);
  const ModuloMapping map(tree, 5);
  const Workload workload = Workload::mixed(tree, 6, 8, 3);
  ASSERT_EQ(workload.size(), 8u);
  const CycleEngine eng(map);
  for (const auto sampling : {EngineOptions::DepthSampling::kEveryBusyCycle,
                              EngineOptions::DepthSampling::kOff}) {
    EngineOptions options;
    options.sampling = sampling;
    EXPECT_THROW((void)eng.run(workload, ArrivalSchedule::explicit_cycles({0, 1}),
                               options),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)eng.run(workload,
                      ArrivalSchedule::explicit_cycles({5, 4, 3, 2, 1, 0, 0, 0}),
                      options),
        std::invalid_argument);
    // Covering exactly the workload, or more, is well formed.
    EXPECT_NO_THROW((void)eng.run(
        workload, ArrivalSchedule::explicit_cycles({0, 0, 1, 2, 3, 5, 8, 13}),
        options));
    EXPECT_NO_THROW((void)eng.run(
        workload,
        ArrivalSchedule::explicit_cycles({0, 0, 1, 2, 3, 5, 8, 13, 21}),
        options));
  }
}

TEST(ArrivalSchedule, SessionRejectsDecreasingArrivalAtDrain) {
  const CompleteBinaryTree tree(8);
  const ModuloMapping map(tree, 5);
  const Workload workload = Workload::mixed(tree, 6, 3, 11);
  for (const auto sampling : {EngineOptions::DepthSampling::kEveryBusyCycle,
                              EngineOptions::DepthSampling::kOff}) {
    EngineOptions options;
    options.sampling = sampling;
    EngineSession session(map, options);
    session.feed(workload[0], 5);
    session.feed(workload[1], 4);
    EXPECT_THROW((void)session.drain(), std::invalid_argument);
    // Clearing the malformed prefix makes the session usable again.
    session.clear();
    session.feed(workload[2], 4);
    EXPECT_NO_THROW((void)session.drain());

    // A decrease that straddles a drain is caught too: the resumed drain
    // checks the new feeds against the last one it simulated.
    EngineSession resumed(map, options);
    resumed.feed(workload[0], 5);
    EXPECT_NO_THROW((void)resumed.drain());
    resumed.feed(workload[1], 4);
    EXPECT_THROW((void)resumed.drain(), std::invalid_argument);
    EXPECT_THROW((void)resumed.drain(), std::invalid_argument);
  }
}

}  // namespace
}  // namespace pmtree
