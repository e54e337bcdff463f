// Fault-injection tests (DESIGN.md §12): the FaultPlan/FaultTimeline
// vocabulary, and the differential contract that makes degraded serving
// trustworthy — an empty plan is bit-identical to the fault-free run on
// both engines, and the event core under any plan is bit-identical to the
// reference loop under the same plan.
#include "pmtree/fault/plan.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>

#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/dyn/incremental.hpp"
#include "pmtree/engine/engine.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/serve/server.hpp"
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
using engine::ReferenceEngine;
using engine::expect_same_trajectory;
using fault::FaultPlan;
using fault::FaultTimeline;
using fault::RandomOptions;
using fault::random_plan;

using DepthSampling = EngineOptions::DepthSampling;

// ---------------------------------------------------------------------------
// FaultTimeline semantics.

/// The last cycle a timeline can name: a module never fail-stopped is
/// alive there.
constexpr std::uint64_t kLastCycle = FaultTimeline::kNever - 1;

/// Module m of `tl` dies at exactly `cycle`: alive one cycle before, dead
/// from it on.
void expect_dies_at(const FaultTimeline& tl, std::uint32_t m,
                    std::uint64_t cycle) {
  EXPECT_FALSE(tl.dead_at(m, cycle - 1)) << "module " << m;
  EXPECT_TRUE(tl.dead_at(m, cycle)) << "module " << m;
  EXPECT_TRUE(tl.dead_at(m, kLastCycle)) << "module " << m;
}

TEST(FaultTimeline, CompilesFailStopsAndRedirectsRoundRobin) {
  // Dead = {1, 3, 4} of 6 modules, live = {0, 2, 5}: the j-th dead module
  // (ascending) folds onto the j-th live module mod 3.
  FaultPlan plan;
  plan.fail_stop(3, 10).fail_stop(1, 4).fail_stop(4, 7);
  const FaultTimeline tl(plan, 6);

  expect_dies_at(tl, 1, 4);
  expect_dies_at(tl, 3, 10);
  expect_dies_at(tl, 4, 7);
  for (const std::uint32_t m : {0u, 2u, 5u}) {
    EXPECT_FALSE(tl.dead_at(m, kLastCycle)) << "module " << m;
  }

  EXPECT_EQ(tl.dead_modules(), (std::vector<std::uint32_t>{1, 3, 4}));
  EXPECT_EQ(tl.redirect(1), 0u);
  EXPECT_EQ(tl.redirect(3), 2u);
  EXPECT_EQ(tl.redirect(4), 5u);
  EXPECT_EQ(tl.redirect(0), 0u);  // live modules map to themselves

  EXPECT_FALSE(tl.dead_at(1, 3));
  EXPECT_TRUE(tl.dead_at(1, 4));
  EXPECT_FALSE(tl.serves_at(1, 4));
  EXPECT_TRUE(tl.serves_at(0, 4));

  // Fail events come out in (cycle, module) order — the drain order.
  ASSERT_EQ(tl.fail_events().size(), 3u);
  EXPECT_EQ(tl.fail_events()[0].module, 1u);
  EXPECT_EQ(tl.fail_events()[1].module, 4u);
  EXPECT_EQ(tl.fail_events()[2].module, 3u);
}

TEST(FaultTimeline, DuplicateFailStopsKeepEarliestCycle) {
  FaultPlan plan;
  plan.fail_stop(2, 20).fail_stop(2, 5).fail_stop(2, 11);
  const FaultTimeline tl(plan, 4);
  expect_dies_at(tl, 2, 5);
  EXPECT_EQ(tl.dead_modules().size(), 1u);
  EXPECT_EQ(tl.fail_events().size(), 1u);
}

TEST(FaultTimeline, SlowdownGatesServiceOnPeriodBoundaries) {
  FaultPlan plan;
  plan.slow_down(0, 10, 22, 4);
  const FaultTimeline tl(plan, 2);
  EXPECT_TRUE(tl.dead_modules().empty());  // a slowdown kills nothing
  for (std::uint64_t t = 0; t < 30; ++t) {
    const bool in_window = t >= 10 && t < 22;
    const bool expect = !in_window || (t - 10) % 4 == 0;
    EXPECT_EQ(tl.serves_at(0, t), expect) << "t=" << t;
    EXPECT_TRUE(tl.serves_at(1, t)) << "t=" << t;  // untouched module
  }
}

TEST(FaultTimeline, IgnoresOutOfRangeAndDegenerateEntries) {
  FaultPlan plan;
  plan.fail_stop(9, 1);         // module beyond the universe
  plan.slow_down(0, 5, 5, 3);   // empty interval
  plan.slow_down(0, 5, 9, 1);   // period 1 is a no-op
  plan.slow_down(7, 5, 9, 3);   // module beyond the universe
  EXPECT_FALSE(plan.empty());   // the *plan* records them...
  const FaultTimeline tl(plan, 4);
  // ...the *timeline* applies none.
  EXPECT_TRUE(tl.dead_modules().empty());
  EXPECT_TRUE(tl.fail_events().empty());
  for (std::uint32_t m = 0; m < 4; ++m) {
    EXPECT_FALSE(tl.dead_at(m, kLastCycle));
    for (std::uint64_t t = 0; t < 12; ++t) {
      EXPECT_TRUE(tl.serves_at(m, t)) << "module " << m << " t=" << t;
    }
  }
}

TEST(FaultTimeline, SparesOneSurvivorWhenEveryModuleFails) {
  FaultPlan plan;
  plan.fail_stop(0, 8).fail_stop(1, 12).fail_stop(2, 12);
  const FaultTimeline tl(plan, 3);
  // Latest fail cycle wins, ties to the highest id: module 2 survives.
  EXPECT_EQ(tl.dead_modules(), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_FALSE(tl.dead_at(2, kLastCycle));
  EXPECT_EQ(tl.redirect(0), 2u);
  EXPECT_EQ(tl.redirect(1), 2u);
}

TEST(FaultPlan, RandomIsDeterministicAndCapsFailures) {
  RandomOptions opts;
  opts.seed = 42;
  opts.modules = 10;
  opts.fail_fraction = 0.3;
  opts.slowdown_count = 4;
  const FaultPlan a = random_plan(opts);
  const FaultPlan b = random_plan(opts);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_EQ(a.fail_stops().size(), 3u);
  EXPECT_EQ(a.slowdowns().size(), 4u);

  // fail_fraction = 1 still leaves a survivor by construction.
  opts.fail_fraction = 1.0;
  const FaultPlan all = random_plan(opts);
  EXPECT_EQ(all.fail_stops().size(), 9u);
}

// ---------------------------------------------------------------------------
// DegradedMapping mirrors the timeline's routing rule.

TEST(DegradedMapping, MatchesFaultTimelineRedirectTable) {
  const CompleteBinaryTree tree(8);
  const ModuloMapping base(tree, 7);
  const std::vector<Color> dead{2, 5};
  const DegradedMapping degraded(base, dead);

  FaultPlan plan;
  for (const Color d : dead) plan.fail_stop(d, 0);
  const FaultTimeline tl(plan, base.num_modules());

  EXPECT_EQ(degraded.num_modules(), base.num_modules());
  EXPECT_EQ(degraded.live_modules(), 5u);
  EXPECT_EQ(degraded.name(), base.name() + "+degraded");
  for (Color c = 0; c < base.num_modules(); ++c) {
    EXPECT_EQ(degraded.redirect_table()[c], tl.redirect(c)) << "color " << c;
  }

  // Scalar and batch kernels agree, and dead colors never appear.
  std::vector<Node> nodes;
  for (std::uint64_t i = 0; i < tree.level_width(6); ++i) {
    nodes.push_back(Node{6, i});
  }
  std::vector<Color> colors(nodes.size());
  degraded.color_of_batch(nodes, colors);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(colors[i], degraded.color_of(nodes[i]));
    EXPECT_EQ(colors[i], tl.redirect(base.color_of(nodes[i])));
    EXPECT_NE(colors[i], 2u);
    EXPECT_NE(colors[i], 5u);
  }
}

TEST(DegradedMapping, SteadyStateEngineRoutingAgrees) {
  // A plan whose modules are dead from cycle 0 routes every request where
  // DegradedMapping would have colored it: served[] distributions match.
  const CompleteBinaryTree tree(9);
  const ColorMapping mapping = make_optimal_color_mapping(tree, 8);
  FaultPlan plan;
  plan.fail_stop(1, 0).fail_stop(6, 0);
  const DegradedMapping degraded(mapping, {1, 6});

  const Workload workload = Workload::paths(tree, 9, 40, 17);
  const CycleEngine healthy_on_degraded(degraded);
  const EngineResult want =
      healthy_on_degraded.run(workload, ArrivalSchedule::all_at_once());

  EngineOptions opts;
  opts.faults = &plan;
  const CycleEngine faulted(mapping);
  const EngineResult got =
      faulted.run(workload, ArrivalSchedule::all_at_once(), opts);

  EXPECT_EQ(got.served, want.served);
  EXPECT_EQ(got.completion_cycle, want.completion_cycle);
  // Dead from cycle 0: exactly the requests the base mapping colors to a
  // dead module are redirected at admission.
  std::uint64_t expect_rerouted = 0;
  for (const auto& access : workload.accesses()) {
    for (const Node n : access) {
      const Color c = mapping.color_of(n);
      if (c == 1 || c == 6) expect_rerouted += 1;
    }
  }
  EXPECT_EQ(got.rerouted_requests, expect_rerouted);
  EXPECT_GT(expect_rerouted, 0u);
  EXPECT_EQ(got.served[1], 0u);
  EXPECT_EQ(got.served[6], 0u);
}

// ---------------------------------------------------------------------------
// Differential: engines under faults.

std::unique_ptr<TreeMapping> random_mapping(const CompleteBinaryTree& tree,
                                            Rng& rng) {
  switch (rng.below(3)) {
    case 0: {
      const std::uint32_t M = 7 + static_cast<std::uint32_t>(rng.below(3)) * 8;
      return std::make_unique<ColorMapping>(
          make_optimal_color_mapping(tree, M));
    }
    case 1:
      return std::make_unique<ModuloMapping>(
          tree, 3 + static_cast<std::uint32_t>(rng.below(14)));
    default:
      return std::make_unique<RandomMapping>(
          tree, 3 + static_cast<std::uint32_t>(rng.below(14)), rng());
  }
}

Workload random_workload(const CompleteBinaryTree& tree, Rng& rng) {
  const std::size_t count = 5 + rng.below(20);
  const std::uint64_t seed = rng();
  switch (rng.below(3)) {
    case 0:
      return Workload::paths(tree, 1 + rng.below(tree.levels()), count, seed);
    case 1:
      return Workload::level_runs(tree, 1 + rng.below(16), count, seed);
    default:
      return Workload::mixed(tree, 1 + rng.below(12), count, seed);
  }
}

ArrivalSchedule random_schedule(Rng& rng) {
  switch (rng.below(4)) {
    case 0: return ArrivalSchedule::all_at_once();
    case 1: return ArrivalSchedule::serialized();
    case 2: return ArrivalSchedule::fixed_rate(rng.below(5));
    default:
      return ArrivalSchedule::bursty(1 + rng.below(8), 1 + rng.below(16));
  }
}

FaultPlan random_plan(std::uint32_t modules, Rng& rng) {
  RandomOptions opts;
  opts.seed = rng();
  opts.modules = modules;
  opts.fail_fraction = 0.1 + 0.3 * static_cast<double>(rng.below(3));
  opts.fail_window = 1 + rng.below(128);
  opts.slowdown_count = static_cast<std::uint32_t>(rng.below(4));
  opts.slowdown_window = 1 + rng.below(128);
  opts.slowdown_max_length = 1 + rng.below(64);
  opts.slowdown_max_period = 2 + rng.below(3);
  return random_plan(opts);
}

TEST(FaultDifferential, EmptyPlanIsBitIdenticalToFaultFree) {
  Rng rng(0xFA017u);
  const FaultPlan empty;
  for (int trial = 0; trial < 20; ++trial) {
    const CompleteBinaryTree tree(6 + static_cast<std::uint32_t>(rng.below(5)));
    const auto mapping = random_mapping(tree, rng);
    const Workload workload = random_workload(tree, rng);
    const ArrivalSchedule schedule = random_schedule(rng);
    SCOPED_TRACE("trial=" + std::to_string(trial) + " mapping=" +
                 mapping->name() + " schedule=" + schedule.name());

    const CycleEngine eng(*mapping);
    const EngineResult want = eng.run(workload, schedule);
    EngineOptions opts;
    opts.faults = &empty;
    expect_same_trajectory(eng.run(workload, schedule, opts), want);

    const ReferenceEngine oracle(*mapping);
    expect_same_trajectory(oracle.run(workload, schedule, empty),
                           oracle.run(workload, schedule));
  }
}

TEST(FaultDifferential, EventCoreMatchesReferenceUnderFaults) {
  Rng rng(0xFA1D1FFu);
  for (int trial = 0; trial < 40; ++trial) {
    const CompleteBinaryTree tree(6 + static_cast<std::uint32_t>(rng.below(5)));
    const auto mapping = random_mapping(tree, rng);
    const Workload workload = random_workload(tree, rng);
    const ArrivalSchedule schedule = random_schedule(rng);
    const FaultPlan plan = random_plan(mapping->num_modules(), rng);
    SCOPED_TRACE("trial=" + std::to_string(trial) + " mapping=" +
                 mapping->name() + " schedule=" + schedule.name() +
                 " plan=" + plan.to_json().dump());

    const ReferenceEngine oracle(*mapping);
    const EngineResult want = oracle.run(workload, schedule, plan);
    const CycleEngine eng(*mapping);

    EngineOptions full;
    full.faults = &plan;
    expect_same_trajectory(eng.run(workload, schedule, full), want);

    // Sampling off changes the observation cost, never the trajectory.
    EngineOptions off = full;
    off.sampling = DepthSampling::kOff;
    const EngineResult fast = eng.run(workload, schedule, off);
    expect_same_trajectory(fast, want, /*compare_depths=*/false);
    ASSERT_TRUE(fast.queue_depth.empty());
  }
}

TEST(FaultDifferential, EveryRequestStillCompletesUnderFaults) {
  // Degraded, not dead: total served == total requests, dead modules stop
  // serving at their fail cycle, and slowdowns surface as stalled cycles.
  const CompleteBinaryTree tree(10);
  const ModuloMapping mapping(tree, 8);
  const Workload workload = Workload::mixed(tree, 10, 120, 23);
  FaultPlan plan;
  plan.fail_stop(3, 0).fail_stop(5, 16);
  plan.slow_down(0, 0, 400, 3);

  EngineOptions opts;
  opts.faults = &plan;
  const CycleEngine eng(mapping);
  const EngineResult res =
      eng.run(workload, ArrivalSchedule::all_at_once(), opts);

  std::uint64_t served = 0;
  for (const std::uint64_t s : res.served) served += s;
  EXPECT_EQ(served, res.requests);
  EXPECT_EQ(res.served[3], 0u);           // dead from cycle 0
  EXPECT_GT(res.rerouted_requests, 0u);
  EXPECT_GT(res.stalled_cycles, 0u);
  for (const auto& rec : res.records) {
    EXPECT_GE(rec.completion, rec.arrival);
  }
  // The degraded run can only be slower than the healthy one.
  const EngineResult healthy = eng.run(workload, ArrivalSchedule::all_at_once());
  EXPECT_GE(res.completion_cycle, healthy.completion_cycle);
}

TEST(DegradedMapping, AgreesWithPlanKillingAllButOneModule) {
  // Extreme degradation: every module but one dead from cycle 0. The
  // engine under the plan must land every request where DegradedMapping
  // routes it — all on the lone survivor — and still complete everything.
  const CompleteBinaryTree tree(8);
  const ModuloMapping mapping(tree, 6);
  FaultPlan plan;
  std::vector<Color> dead;
  for (Color m = 0; m < 6; ++m) {
    if (m == 4) continue;  // survivor
    plan.fail_stop(m, 0);
    dead.push_back(m);
  }
  const DegradedMapping degraded(mapping, dead);
  const Workload workload = Workload::mixed(tree, 8, 60, 41);

  EngineOptions opts;
  opts.faults = &plan;
  const CycleEngine faulted(mapping);
  const EngineResult got =
      faulted.run(workload, ArrivalSchedule::all_at_once(), opts);
  const CycleEngine oracle(degraded);
  const EngineResult want =
      oracle.run(workload, ArrivalSchedule::all_at_once());

  EXPECT_EQ(got.served, want.served);
  EXPECT_EQ(got.completion_cycle, want.completion_cycle);
  std::uint64_t served = 0;
  for (Color m = 0; m < 6; ++m) {
    if (m != 4) {
      EXPECT_EQ(got.served[m], 0u) << "module " << m;
    }
    served += got.served[m];
  }
  EXPECT_EQ(served, got.requests);
  EXPECT_EQ(got.served[4], got.requests);
}

TEST(FaultDifferential, MidRunMassFailureDrainsQueuedRequestsToSurvivor) {
  // All-but-one modules fail WHILE requests sit queued on them: the
  // queued work must drain FIFO onto the survivor — nothing is lost, the
  // run completes, and no dead module serves past its fail cycle.
  const CompleteBinaryTree tree(9);
  const ModuloMapping mapping(tree, 5);
  const Workload workload = Workload::mixed(tree, 9, 100, 59);
  const std::uint64_t fail_cycle = 6;
  FaultPlan plan;
  for (Color m = 1; m < 5; ++m) plan.fail_stop(m, fail_cycle);

  EngineOptions opts;
  opts.faults = &plan;
  const CycleEngine eng(mapping);
  const EngineResult res =
      eng.run(workload, ArrivalSchedule::all_at_once(), opts);

  std::uint64_t served = 0;
  for (const std::uint64_t s : res.served) served += s;
  EXPECT_EQ(served, res.requests);
  // Dead modules served at most fail_cycle cycles' worth of requests.
  for (Color m = 1; m < 5; ++m) {
    EXPECT_LE(res.served[m], fail_cycle) << "module " << m;
  }
  EXPECT_GT(res.rerouted_requests, 0u);
  EXPECT_GT(res.served[0], 0u);
  for (const auto& rec : res.records) {
    EXPECT_GE(rec.completion, rec.arrival);
  }
  // The survivor ends up with everything the dead modules never served.
  EXPECT_EQ(res.served[0], res.requests - (res.served[1] + res.served[2] +
                                           res.served[3] + res.served[4]));
}

// ---------------------------------------------------------------------------
// Dyn-tree mutation batches under fault injection (ISSUE 9 satellite):
// insert/erase requests racing a fail-stop epoch must drain cleanly —
// every request terminal, every mutation applied exactly once even when
// retries re-dispatch its request, and the whole run bit-identical at
// any worker count, pipeline workers included.

struct DynFaultRun {
  serve::ServeReport report;
  std::vector<Node> live;
  std::uint64_t tree_version = 0;
};

DynFaultRun run_dyn_faulted(const std::vector<serve::Request>& requests,
                            const FaultPlan* plan, unsigned workers,
                            unsigned pipeline_workers = 0) {
  const CompleteBinaryTree envelope(8);
  dyn::DynamicTree tree(8);
  dyn::IncrementalColorer colorer =
      dyn::IncrementalColorer::color(envelope, 5, 2);
  serve::ServerOptions opts;
  opts.tick_cycles = 2;
  opts.workers = workers;
  opts.pipeline.workers = pipeline_workers;
  opts.batch.max_batch_nodes = 12;
  opts.engine.faults = plan;
  opts.retry.max_retries = 2;
  opts.retry.attempt_timeout_cycles = 6;
  opts.retry.backoff_base_cycles = 2;
  opts.retry.backoff_cap_cycles = 32;
  opts.dyn.tree = &tree;
  opts.dyn.colorer = &colorer;
  serve::Server server(colorer, opts);
  for (const serve::Request& r : requests) server.submit(r);
  DynFaultRun run;
  run.report = server.run();
  run.live = tree.live_nodes();
  run.tree_version = tree.version();
  EXPECT_TRUE(tree.validate());
  return run;
}

TEST(DynFaults, MutationBatchesDrainCleanlyAcrossFailStopEpoch) {
  Rng rng(0xFA17D711);
  std::vector<serve::Request> requests;
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> next_seq(3, 0);
  for (int i = 0; i < 90; ++i) {
    clock += rng.below(3);
    serve::Request r;
    r.client = static_cast<std::uint32_t>(rng.below(3));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    const std::uint64_t dice = rng.below(10);
    const auto level = static_cast<std::uint32_t>(rng.between(1, 4));
    const Node target{level, rng.below(pow2(level))};
    if (dice < 4) {
      r.kind = serve::RequestKind::kInsert;
      r.target = target;
      r.payload = static_cast<std::int64_t>(i);
    } else if (dice < 6) {
      r.kind = serve::RequestKind::kErase;
      r.target = target;
    }
    Node cur = target;
    while (true) {
      r.nodes.push_back(cur);
      if (cur.level == 0) break;
      cur = parent(cur);
    }
    requests.push_back(std::move(r));
  }
  // Fail-stop epoch mid-run: half the modules die while writes are in
  // flight; the tight retry policy turns the inflated residencies into
  // re-dispatches that race the barrier's applied-once flags.
  FaultPlan plan;
  plan.fail_stop(1, 8);
  plan.fail_stop(3, 8);
  plan.fail_stop(5, 16);

  const DynFaultRun oracle = run_dyn_faulted(requests, &plan, 1);

  // Clean drain: every request terminal.
  ASSERT_EQ(oracle.report.count(serve::RequestStatus::kOk) +
                oracle.report.count(serve::RequestStatus::kShed) +
                oracle.report.count(serve::RequestStatus::kExpired),
            requests.size());
  // Apply-once: at most one mutation record per (client, seq), even for
  // retried requests, and at least one write both applied and retried
  // somewhere in the run (the race this test exists for).
  std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
  std::uint64_t applied = 0;
  for (const serve::MutationRecord& rec : oracle.report.mutations) {
    EXPECT_TRUE(seen.emplace(rec.client, rec.seq).second)
        << "double-applied (" << rec.client << ", " << rec.seq << ")";
    if (rec.status == dyn::DynStatus::kOk) applied += 1;
  }
  EXPECT_GT(applied, 0u);
  std::uint64_t retried = 0;
  for (const serve::Response& resp : oracle.report.responses) {
    retried += resp.retries;
  }
  EXPECT_GT(retried, 0u);

  // Worker-count invariance holds under faults + writes too.
  for (const unsigned workers : {2u, 8u}) {
    const DynFaultRun got = run_dyn_faulted(requests, &plan, workers);
    ASSERT_EQ(got.report.to_json().dump(), oracle.report.to_json().dump());
    ASSERT_EQ(got.live, oracle.live);
    ASSERT_EQ(got.tree_version, oracle.tree_version);
  }

  // So do pipeline workers: the same report apart from the wall-time
  // "pipeline" metrics section.
  const auto without_pipeline = [](serve::ServeReport report) {
    Json metrics = Json::object();
    for (const auto& [key, value] : report.metrics.members()) {
      if (key != "pipeline") metrics.set(key, value);
    }
    report.metrics = std::move(metrics);
    return report.to_json().dump();
  };
  for (const unsigned pipeline_workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("pipeline_workers=" + std::to_string(pipeline_workers));
    const DynFaultRun got =
        run_dyn_faulted(requests, &plan, 1, pipeline_workers);
    ASSERT_NE(got.report.metrics.find("pipeline"), nullptr);
    ASSERT_EQ(without_pipeline(got.report), without_pipeline(oracle.report));
    ASSERT_EQ(got.live, oracle.live);
    ASSERT_EQ(got.tree_version, oracle.tree_version);
  }
}

TEST(DynFaults, EmptyPlanMatchesUnfaultedDynRun) {
  Rng rng(0xFA17D712);
  std::vector<serve::Request> requests;
  std::uint64_t seq = 0;
  for (int i = 0; i < 40; ++i) {
    serve::Request r;
    r.client = 0;
    r.seq = seq++;
    r.submit_cycle = static_cast<std::uint64_t>(i);
    const auto level = static_cast<std::uint32_t>(rng.between(1, 3));
    r.kind = rng.chance(1, 2) ? serve::RequestKind::kInsert
                              : serve::RequestKind::kErase;
    r.target = Node{level, rng.below(pow2(level))};
    r.nodes.push_back(r.target);
    requests.push_back(std::move(r));
  }
  const FaultPlan empty;
  const DynFaultRun faulted = run_dyn_faulted(requests, &empty, 2);
  const DynFaultRun bare = run_dyn_faulted(requests, nullptr, 2);
  ASSERT_EQ(faulted.report.to_json().dump(), bare.report.to_json().dump());
  ASSERT_EQ(faulted.live, bare.live);
}

}  // namespace
}  // namespace pmtree
