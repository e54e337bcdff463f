// EngineSession ≡ CycleEngine::run differential property tests.
//
// The serve batch executor runs every lane as one EngineSession that is
// fed batch-by-batch and drained at round barriers, instead of re-running
// a monolithic replica engine each round. That is sound only if a
// session fed incrementally is bit-identical to CycleEngine::run over the
// same accesses under ArrivalSchedule::explicit_cycles of the same
// arrivals — including mid-stream drains (a fault-free session resumes its
// recurrence at each drain, a faulted one replays) and the feed_resolved
// entry the executor's resolve phase uses. This suite holds that identity
// on randomized (mapping, workload, arrivals) triples across every
// template family and sampling mode, comparing every EngineResult field
// and both histograms — healthy, and under random fail-stop and slowdown
// FaultPlans — with ReferenceEngine as the second oracle.
#include "pmtree/engine/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pmtree/engine/engine.hpp"
#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/util/rng.hpp"
#include "engine_trajectory.hpp"
#include "fault_plans.hpp"
#include "reference_engine.hpp"
#include "test_mappings.hpp"

namespace pmtree {
namespace {

using engine::ArrivalSchedule;
using engine::CycleEngine;
using engine::EngineOptions;
using engine::EngineResult;
using engine::EngineSession;
using engine::ReferenceEngine;

using DepthSampling = EngineOptions::DepthSampling;

/// Same repertoire as test_engine_event_core: the mappings the serve
/// layer actually runs on.
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
    case 0: {
      const std::uint64_t K =
          pow2(1 + static_cast<std::uint32_t>(rng.below(4))) - 1;
      return Workload::subtrees(tree, K, count, seed);
    }
    case 1: {
      const std::uint64_t K = 1 + rng.below(tree.levels());
      return Workload::paths(tree, K, count, seed);
    }
    case 2: {
      const std::uint64_t K = 1 + rng.below(16);
      return Workload::level_runs(tree, K, count, seed);
    }
    default: {
      const std::uint64_t c = 2 + rng.below(3);
      const std::uint64_t D = c * (3 + rng.below(10));
      return Workload::composites(tree, D, c, count, seed);
    }
  }
}

/// Nondecreasing arrival cycles with bursty gaps (several accesses per
/// cycle, occasional long idle stretches).
std::vector<std::uint64_t> random_arrivals(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> cycles(n);
  std::uint64_t t = rng.below(4);
  for (std::size_t i = 0; i < n; ++i) {
    cycles[i] = t;
    if (rng.chance(1, 3)) t += rng.below(12);
  }
  return cycles;
}

/// Whole-trajectory bit identity: scalars, records, per-module arrays and
/// both histograms, bucket by bucket.
void expect_same_result(const EngineResult& got, const EngineResult& want) {
  engine::expect_same_trajectory(got, want);
}

/// The first `k` accesses of `workload` and of `arrivals`.
std::pair<Workload, ArrivalSchedule> prefix_of(
    const Workload& workload, const std::vector<std::uint64_t>& arrivals,
    std::size_t k) {
  const auto n = static_cast<std::ptrdiff_t>(k);
  return {Workload(std::vector<Workload::Access>(
              workload.accesses().begin(), workload.accesses().begin() + n)),
          ArrivalSchedule::explicit_cycles(std::vector<std::uint64_t>(
              arrivals.begin(), arrivals.begin() + n))};
}

EngineOptions random_options(Rng& rng) {
  EngineOptions options;
  options.sampling = rng.chance(1, 2) ? DepthSampling::kEveryBusyCycle
                                      : DepthSampling::kOff;
  return options;
}

class SessionDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SessionDifferential, FeedDrainMatchesMonolithicRun) {
  const int family = GetParam();
  Rng rng(0x5E5510Du + static_cast<std::uint64_t>(family));
  for (int trial = 0; trial < 40; ++trial) {
    const CompleteBinaryTree tree(6 + static_cast<std::uint32_t>(rng.below(7)));
    const auto mapping = random_mapping(tree, rng);
    const Workload workload = random_workload(tree, family, rng);
    const std::vector<std::uint64_t> arrivals =
        random_arrivals(workload.size(), rng);
    const EngineOptions options = random_options(rng);
    SCOPED_TRACE("trial=" + std::to_string(trial) +
                 " mapping=" + mapping->name() +
                 " accesses=" + std::to_string(workload.size()));

    const CycleEngine eng(*mapping);
    const EngineResult want =
        eng.run(workload, ArrivalSchedule::explicit_cycles(arrivals), options);

    // Colors resolved upstream, exactly the executor's resolve-phase
    // handoff.
    EngineSession session(*mapping, options);
    for (std::size_t i = 0; i < workload.size(); ++i) {
      session.feed_resolved(mapping->colors_of(workload[i]), arrivals[i]);
    }
    ASSERT_EQ(session.accesses(), workload.size());
    expect_same_result(session.drain(), want);
  }
}

TEST_P(SessionDifferential, MidStreamDrainsMatchPrefixRuns) {
  const int family = GetParam();
  Rng rng(0xD4A1Eu + static_cast<std::uint64_t>(family));
  for (int trial = 0; trial < 10; ++trial) {
    const CompleteBinaryTree tree(6 + static_cast<std::uint32_t>(rng.below(5)));
    const auto mapping = random_mapping(tree, rng);
    const Workload workload = random_workload(tree, family, rng);
    const std::vector<std::uint64_t> arrivals =
        random_arrivals(workload.size(), rng);
    SCOPED_TRACE("trial=" + std::to_string(trial) +
                 " mapping=" + mapping->name());

    const CycleEngine eng(*mapping);
    const ReferenceEngine oracle(*mapping);
    EngineSession session(*mapping);
    std::size_t fed = 0;
    while (fed < workload.size()) {
      // Feed a chunk of 1..4 accesses, then drain: each drain resumes the
      // previous one and must equal a run over the prefix from cycle 0 —
      // the retry-round contract of a fault-free lane: draining again
      // after more feeds never moves an earlier completion.
      const std::size_t end =
          std::min<std::size_t>(workload.size(), fed + 1 + rng.below(4));
      for (; fed < end; ++fed) {
        session.feed_resolved(mapping->colors_of(workload[fed]),
                              arrivals[fed]);
      }
      SCOPED_TRACE("prefix=" + std::to_string(fed));
      const auto [prefix, schedule] = prefix_of(workload, arrivals, fed);
      const EngineResult& got = session.drain();
      expect_same_result(got, eng.run(prefix, schedule));
      expect_same_result(got, oracle.run(prefix, schedule));
    }
  }
}

/// A random fail-stop + slowdown plan whose fail-stops all fire before
/// cycle `fail_window`.
fault::FaultPlan random_plan(std::uint32_t modules, std::uint64_t fail_window,
                             Rng& rng) {
  fault::RandomOptions opts;
  opts.seed = rng();
  opts.modules = modules;
  opts.fail_fraction = 0.1 + 0.3 * static_cast<double>(rng.below(3));
  opts.fail_window = fail_window;
  opts.slowdown_count = static_cast<std::uint32_t>(rng.below(4));
  opts.slowdown_window = 1 + rng.below(128);
  opts.slowdown_max_length = 1 + rng.below(64);
  opts.slowdown_max_period = 2 + rng.below(3);
  return fault::random_plan(opts);
}

TEST_P(SessionDifferential, FaultedFeedDrainMatchesMonolithicAndReference) {
  const int family = GetParam();
  Rng rng(0xFA5E55u + static_cast<std::uint64_t>(family));
  for (int trial = 0; trial < 20; ++trial) {
    const CompleteBinaryTree tree(6 + static_cast<std::uint32_t>(rng.below(5)));
    const auto mapping = random_mapping(tree, rng);
    const Workload workload = random_workload(tree, family, rng);
    const std::vector<std::uint64_t> arrivals =
        random_arrivals(workload.size(), rng);
    const fault::FaultPlan plan =
        random_plan(mapping->num_modules(), 1 + rng.below(128), rng);
    SCOPED_TRACE("trial=" + std::to_string(trial) + " mapping=" +
                 mapping->name() + " plan=" + plan.to_json().dump());

    const ArrivalSchedule schedule = ArrivalSchedule::explicit_cycles(arrivals);
    const EngineResult reference =
        ReferenceEngine(*mapping).run(workload, schedule, plan);
    const CycleEngine eng(*mapping);
    for (const DepthSampling mode :
         {DepthSampling::kEveryBusyCycle, DepthSampling::kOff}) {
      EngineOptions options;
      options.sampling = mode;
      options.faults = &plan;
      const EngineResult want = eng.run(workload, schedule, options);

      EngineSession session(*mapping, options);
      for (std::size_t i = 0; i < workload.size(); ++i) {
        session.feed_resolved(mapping->colors_of(workload[i]), arrivals[i]);
      }
      const EngineResult got = session.drain();
      expect_same_result(got, want);

      // The trajectory is the reference loop's in every sampling mode;
      // with full sampling the whole snapshot and depth histogram are.
      ASSERT_EQ(got.records.size(), reference.records.size());
      for (std::size_t i = 0; i < got.records.size(); ++i) {
        ASSERT_EQ(got.records[i].completion, reference.records[i].completion)
            << "access " << i;
      }
      ASSERT_EQ(got.served, reference.served);
      ASSERT_EQ(got.rerouted_requests, reference.rerouted_requests);
      ASSERT_EQ(got.stalled_cycles, reference.stalled_cycles);
      ASSERT_EQ(got.busy_cycles, reference.busy_cycles);
      if (mode == DepthSampling::kEveryBusyCycle) {
        expect_same_result(got, reference);
        ASSERT_EQ(got.queue_depth.count(), reference.queue_depth.count());
        ASSERT_EQ(got.queue_depth.sum(), reference.queue_depth.sum());
      }
    }
  }
}

std::string family_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"Subtrees", "Paths", "LevelRuns",
                                       "Composites"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SessionDifferential,
                         ::testing::Values(0, 1, 2, 3), family_name);

TEST(EngineSession, FaultedSecondDrainExtendsTheFirst) {
  // feed → drain → feed → drain under a FaultPlan: each drain is the
  // monolithic run over its prefix, and the second keeps every record of
  // the first. The later feeds arrive after every fail-stop has fired —
  // the serving retry rounds' situation once a failure has settled. (A
  // fail-stop firing after them could drain an earlier request onto its
  // reroute target behind a later arrival.)
  Rng rng(0x2D4A1Eu);
  for (int trial = 0; trial < 30; ++trial) {
    const CompleteBinaryTree tree(6 + static_cast<std::uint32_t>(rng.below(5)));
    const auto mapping = random_mapping(tree, rng);
    const Workload workload =
        random_workload(tree, static_cast<int>(rng.below(4)), rng);
    const std::uint64_t fail_window = 1 + rng.below(64);
    const fault::FaultPlan plan =
        random_plan(mapping->num_modules(), fail_window, rng);
    std::vector<std::uint64_t> arrivals = random_arrivals(workload.size(), rng);
    const std::size_t split = workload.size() / 2;
    for (std::size_t i = split; i < arrivals.size(); ++i) {
      arrivals[i] += fail_window;
    }
    EngineOptions options = random_options(rng);
    options.faults = &plan;
    SCOPED_TRACE("trial=" + std::to_string(trial) + " mapping=" +
                 mapping->name() + " plan=" + plan.to_json().dump());

    EngineSession session(*mapping, options);
    for (std::size_t i = 0; i < split; ++i) {
      session.feed_resolved(mapping->colors_of(workload[i]), arrivals[i]);
    }
    const EngineResult first = session.drain();
    for (std::size_t i = split; i < workload.size(); ++i) {
      session.feed_resolved(mapping->colors_of(workload[i]), arrivals[i]);
    }
    const EngineResult second = session.drain();

    const CycleEngine eng(*mapping);
    const auto [prefix, schedule] = prefix_of(workload, arrivals, split);
    expect_same_result(first, eng.run(prefix, schedule, options));
    expect_same_result(
        second,
        eng.run(workload, ArrivalSchedule::explicit_cycles(arrivals), options));
    for (std::size_t i = 0; i < split; ++i) {
      ASSERT_EQ(second.records[i].arrival, first.records[i].arrival) << i;
      ASSERT_EQ(second.records[i].completion, first.records[i].completion)
          << i;
    }
  }
}

TEST(EngineSession, EmptySessionDrainsToEmptyResult) {
  const CompleteBinaryTree tree(8);
  const ModuloMapping mapping(tree, 7);
  EngineSession session(mapping);
  const EngineResult empty = session.drain();
  EXPECT_EQ(empty.accesses, 0u);
  EXPECT_EQ(empty.requests, 0u);
  EXPECT_EQ(empty.completion_cycle, 0u);
  EXPECT_TRUE(empty.records.empty());

  const CycleEngine eng(mapping);
  const EngineResult want =
      eng.run(Workload(), ArrivalSchedule::all_at_once());
  expect_same_result(empty, want);
}

TEST(EngineSession, EmptyAccessesRideAlong) {
  // Zero-node accesses (an admitted request whose node set coalesced to
  // nothing never happens in serving, but the engine defines them:
  // completion == arrival). Interleave them with real accesses.
  const CompleteBinaryTree tree(8);
  const ModuloMapping mapping(tree, 5);
  std::vector<Workload::Access> accesses;
  accesses.push_back({});
  accesses.push_back({Node{0, 0}, Node{1, 0}, Node{1, 1}});
  accesses.push_back({});
  const Workload workload{std::move(accesses)};
  const std::vector<std::uint64_t> arrivals{0, 2, 2};

  const CycleEngine eng(mapping);
  const EngineResult want =
      eng.run(workload, ArrivalSchedule::explicit_cycles(arrivals));

  EngineSession session(mapping);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    session.feed_resolved(mapping.colors_of(workload[i]), arrivals[i]);
  }
  expect_same_result(session.drain(), want);
}

TEST(EngineSession, SecondDrainWithoutFeedsIsIdentical) {
  // drain() closes the open busy interval and depth runs into the result
  // it returns, not into the session's state, so draining twice returns
  // the same result — healthy, and replayed under a fault plan.
  Rng rng(0x5A3ED4u);
  for (int trial = 0; trial < 12; ++trial) {
    const CompleteBinaryTree tree(6 + static_cast<std::uint32_t>(rng.below(5)));
    const auto mapping = random_mapping(tree, rng);
    const Workload workload =
        random_workload(tree, static_cast<int>(rng.below(4)), rng);
    const std::vector<std::uint64_t> arrivals =
        random_arrivals(workload.size(), rng);
    const fault::FaultPlan plan =
        random_plan(mapping->num_modules(), 1 + rng.below(64), rng);
    EngineOptions options = random_options(rng);
    if (trial % 2 == 1) options.faults = &plan;
    SCOPED_TRACE("trial=" + std::to_string(trial));

    EngineSession session(*mapping, options);
    const std::size_t split = workload.size() / 2;
    for (std::size_t i = 0; i < split; ++i) {
      session.feed_resolved(mapping->colors_of(workload[i]), arrivals[i]);
    }
    const EngineResult first = session.drain();
    expect_same_result(session.drain(), first);
    for (std::size_t i = split; i < workload.size(); ++i) {
      session.feed_resolved(mapping->colors_of(workload[i]), arrivals[i]);
    }
    const EngineResult whole = session.drain();
    expect_same_result(session.drain(), whole);
    expect_same_result(
        whole,
        CycleEngine(*mapping).run(
            workload, ArrivalSchedule::explicit_cycles(arrivals), options));
  }
}

}  // namespace
}  // namespace pmtree
