// Batch-executor thread-count tests (DESIGN.md §14): Server and Forest run
// every cut batch through one executor, whose workers resolve the cuts in
// chunks while the tick loop runs and which feeds and drains each lane at
// the round barrier. A run must be bit-identical,
// request-for-request, at 1, 2 and 8 stage-attributed threads
// (pipeline.workers) to the 1-thread run without attribution
// (pipeline.workers == 0, the reference) — responses, batches, per-lane
// trajectories, tick/round counts and every metrics section. The ONLY
// tolerated difference is the "pipeline" stage-attribution section, which
// measures wall time and is checked for shape and for accumulating across
// runs instead. Faulted configurations, round cut counts on both sides of
// a chunk boundary, epoch observations in chunks on both sides of plain
// ones, and resolves or observations that throw run under the same
// contract, and every reported batch's nodes come out deduplicated and
// sorted whichever thread resolved them. Three serve contracts are probed
// at every thread count here too: a retry round's faulted replay that
// moves an earlier round's completion (the report must carry the moved
// completion, and judge its retry on it), the DRR credit rule
// (weight * quantum must fit 64 bits; accrual saturates), and a batch
// cap of 2^63 (a batch allocates what it takes, not its cap).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/fair.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/util/rng.hpp"
#include "fault_plans.hpp"
#include "serve_compare.hpp"
#include "test_mappings.hpp"

namespace pmtree::serve {
namespace {

// ---------------------------------------------------------------------------
// The stage-attribution export.

constexpr const char* kStages[] = {"control", "resolve", "observe_wait",
                                   "execute", "drain", "barrier"};

/// The stage-attribution export carries exactly the counters DESIGN.md §14
/// defines, with values consistent with the first run of a fresh system.
void expect_pipeline_stats_shape(const Json& metrics, unsigned workers,
                                 std::uint64_t batches) {
  const Json* p = metrics.find("pipeline");
  ASSERT_NE(p, nullptr) << "pipelined run lost its stage attribution";
  std::vector<std::string> keys;
  for (const auto& [key, value] : p->members()) {
    (void)value;
    keys.push_back(key);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"workers", "lanes", "rounds",
                                            "batches", "max_in_flight",
                                            "stage_ns"}));
  ASSERT_EQ(p->find("workers")->as_uint(), workers);
  EXPECT_GE(p->find("lanes")->as_uint(), 1u);
  EXPECT_GE(p->find("rounds")->as_uint(), 1u);
  EXPECT_EQ(p->find("batches")->as_uint(), batches);
  EXPECT_LE(p->find("max_in_flight")->as_uint(), batches);
  EXPECT_GE(p->find("max_in_flight")->as_uint(), batches > 0 ? 1u : 0u);
  const Json* stages = p->find("stage_ns");
  ASSERT_NE(stages, nullptr);
  for (const char* stage : kStages) {
    ASSERT_NE(stages->find(stage), nullptr) << stage;
  }
}

// ---------------------------------------------------------------------------
// Server side.

struct Config {
  std::unique_ptr<CompleteBinaryTree> tree;
  std::unique_ptr<TreeMapping> mapping;
  ServerOptions options;
  std::vector<Request> requests;
  std::unique_ptr<fault::FaultPlan> faults;
};

Config random_config(std::uint64_t seed) {
  Rng rng(seed);
  Config cfg;
  const std::uint32_t levels = static_cast<std::uint32_t>(rng.between(5, 9));
  cfg.tree = std::make_unique<CompleteBinaryTree>(levels);
  const std::uint32_t modules = static_cast<std::uint32_t>(rng.between(3, 17));
  if (rng.chance(1, 2)) {
    cfg.mapping = std::make_unique<ColorMapping>(
        make_optimal_color_mapping(*cfg.tree, modules));
  } else {
    cfg.mapping = std::make_unique<ModuloMapping>(*cfg.tree, modules);
  }

  cfg.options.tick_cycles = rng.between(1, 6);
  cfg.options.replicas = static_cast<std::uint32_t>(rng.between(1, 4));
  cfg.options.admission.queue_bound = rng.between(1, 32);
  cfg.options.admission.overflow =
      rng.chance(1, 2) ? OverflowPolicy::kShed : OverflowPolicy::kBlock;
  cfg.options.batch.max_batch_nodes = rng.between(2, 48);
  cfg.options.batch.max_wait_cycles = rng.between(0, 12);
  // Healthy-path retries: a tight attempt timeout makes deep batches
  // overstay their residency budget without any fault plan, so pipelined
  // runs exercise multi-round (retry) serving too.
  if (rng.chance(1, 2)) {
    cfg.options.retry.max_retries = static_cast<std::uint32_t>(rng.between(1, 3));
    cfg.options.retry.attempt_timeout_cycles = rng.between(2, 8);
    cfg.options.retry.backoff_base_cycles = rng.between(1, 6);
    cfg.options.retry.backoff_cap_cycles = 64;
  }

  const std::size_t count = rng.between(20, 120);
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> next_seq(4, 0);
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(5);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(4));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    r.deadline_cycles = rng.chance(1, 4) ? rng.between(1, 20) : 0;
    const std::size_t nodes = rng.below(6);
    for (std::size_t k = 0; k < nodes; ++k) {
      const std::uint32_t level =
          static_cast<std::uint32_t>(rng.below(levels));
      r.nodes.push_back(v(rng.below(pow2(level)), level));
    }
    cfg.requests.push_back(std::move(r));
  }
  return cfg;
}

ServeReport run_server(const Config& cfg, unsigned pipeline_workers) {
  ServerOptions opts = cfg.options;
  opts.pipeline.workers = pipeline_workers;
  if (cfg.faults != nullptr) opts.engine.faults = cfg.faults.get();
  Server server(*cfg.mapping, opts);
  for (const Request& r : cfg.requests) server.submit(r);
  return server.run();
}

void expect_same_serve_report(const ServeReport& got, const ServeReport& want) {
  expect_same_responses(got.responses, want.responses);
  expect_same_batches(got.batches, want.batches);
  expect_same_lanes(got.replicas, want.replicas);
  ASSERT_EQ(got.ticks, want.ticks);
  ASSERT_EQ(got.rounds, want.rounds);
  ASSERT_EQ(got.final_cycle, want.final_cycle);
  expect_same_metrics_but(got.metrics, want.metrics, "pipeline");
}

/// The E19 serving stream (EXPERIMENTS.md): root-to-leaf path lookups,
/// sibling pairs and short level runs from 16 clients at a mean gap of
/// `gap` cycles, under E19's admission and batching knobs on 3 replicas.
/// At gap 0 everything arrives at cycle 0 and admission sheds most of it.
Config e19_config(std::uint64_t gap) {
  Config cfg;
  cfg.tree = std::make_unique<CompleteBinaryTree>(10);
  cfg.mapping = std::make_unique<ColorMapping>(
      make_optimal_color_mapping(*cfg.tree, 15));
  cfg.options.tick_cycles = 4;
  cfg.options.replicas = 3;
  cfg.options.admission.queue_bound = 128;
  cfg.options.admission.overflow = OverflowPolicy::kShed;
  cfg.options.batch.max_batch_nodes = 96;
  cfg.options.batch.max_wait_cycles = 8;
  cfg.options.engine.sampling = engine::EngineOptions::DepthSampling::kOff;

  Rng rng(0xE19 + gap);
  constexpr std::uint32_t kClients = 16;
  std::vector<std::uint64_t> next_seq(kClients, 0);
  std::uint64_t clock = 0;
  const std::uint32_t bottom = cfg.tree->levels() - 1;
  for (std::size_t i = 0; i < 600; ++i) {
    clock += gap == 0 ? 0 : rng.below(2 * gap + 1);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(kClients));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    const std::uint64_t kind = rng.below(10);
    if (kind < 7) {
      Node n = v(rng.below(pow2(bottom)), bottom);
      r.nodes.push_back(n);
      while (n.level > 0) {
        n = parent(n);
        r.nodes.push_back(n);
      }
    } else if (kind < 9) {
      const Node n = v(rng.below(pow2(bottom)) & ~std::uint64_t{1}, bottom);
      r.nodes.push_back(n);
      r.nodes.push_back(sibling(n));
    } else {
      const std::uint64_t width = rng.between(4, 8);
      const std::uint64_t first = rng.below(pow2(bottom - 1) - width);
      for (std::uint64_t k = 0; k < width; ++k) {
        r.nodes.push_back(v(first + k, bottom - 1));
      }
    }
    cfg.requests.push_back(std::move(r));
  }
  return cfg;
}

TEST(ServePipeline, ServerMatchesOracleAtEveryWorkerCount) {
  std::vector<std::pair<std::string, Config>> inputs;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    inputs.emplace_back("seed=" + std::to_string(seed),
                        random_config(seed * 6700417));
  }
  for (const std::uint64_t gap : {0u, 2u, 8u}) {
    inputs.emplace_back("e19 gap=" + std::to_string(gap), e19_config(gap));
  }
  std::uint64_t total_rounds = 0;
  bool shed_heavy = false;
  for (const auto& [name, cfg] : inputs) {
    SCOPED_TRACE(name);
    const ServeReport oracle = run_server(cfg, 0);
    ASSERT_EQ(oracle.count(RequestStatus::kOk) +
                  oracle.count(RequestStatus::kShed) +
                  oracle.count(RequestStatus::kExpired),
              cfg.requests.size());
    ASSERT_TRUE(oracle.metrics.find("pipeline") == nullptr)
        << "oracle reports must not grow a pipeline section";
    total_rounds += oracle.rounds;
    shed_heavy = shed_heavy || 2 * oracle.count(RequestStatus::kShed) >
                                   cfg.requests.size();

    for (const unsigned workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("pipeline_workers=" + std::to_string(workers));
      const ServeReport piped = run_server(cfg, workers);
      expect_same_serve_report(piped, oracle);
      expect_pipeline_stats_shape(piped.metrics, workers,
                                  oracle.batches.size());
    }
  }
  // The tight healthy-path retry policies actually fired somewhere:
  // multi-round serving was exercised, not just single rounds.
  EXPECT_GT(total_rounds, inputs.size());
  EXPECT_TRUE(shed_heavy) << "no input shed most of its requests";
}

/// A seeded fail-stop + slowdown plan over `modules` modules.
std::unique_ptr<fault::FaultPlan> random_faults(std::uint32_t modules,
                                                std::uint64_t seed) {
  Rng rng(seed);
  fault::RandomOptions fopts;
  fopts.seed = rng();
  fopts.modules = modules;
  fopts.fail_fraction = 0.25;
  fopts.fail_window = 64;
  fopts.slowdown_count = 2;
  fopts.slowdown_window = 256;
  fopts.slowdown_max_length = 128;
  fopts.slowdown_max_period = 4;
  return std::make_unique<fault::FaultPlan>(fault::random_plan(fopts));
}

TEST(ServePipeline, FaultedServerRunsOnThePipelineAndMatchesOracle) {
  std::uint64_t rerouted = 0;
  for (std::uint64_t seed : {3u, 8u, 11u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Config cfg = random_config(seed * 2654435761u);
    cfg.faults = random_faults(cfg.mapping->num_modules(), seed ^ 0xFA017u);
    cfg.options.retry.max_retries = 2;
    cfg.options.retry.attempt_timeout_cycles = 8;

    const ServeReport oracle = run_server(cfg, 0);
    ASSERT_TRUE(oracle.metrics.find("pipeline") == nullptr);
    expect_responses_match_lanes(oracle.responses, oracle.replicas);
    for (const engine::EngineResult& r : oracle.replicas) {
      rerouted += r.rerouted_requests;
    }
    for (const unsigned workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("pipeline_workers=" + std::to_string(workers));
      const ServeReport piped = run_server(cfg, workers);
      expect_same_serve_report(piped, oracle);
      expect_pipeline_stats_shape(piped.metrics, workers,
                                  oracle.batches.size());
    }
  }
  EXPECT_GT(rerouted, 0u) << "the fault plans never rerouted a request";
}

TEST(ServePipeline, EmptyFaultPlanStaysOnThePipeline) {
  // An EMPTY plan is healthy (the engine treats it as no plan); the run
  // must match and keep its stage attribution.
  Config cfg = random_config(0xE0F11);
  cfg.faults = std::make_unique<fault::FaultPlan>();
  const ServeReport oracle = run_server(cfg, 0);
  const ServeReport piped = run_server(cfg, 2);
  expect_same_serve_report(piped, oracle);
  expect_pipeline_stats_shape(piped.metrics, 2, oracle.batches.size());
}

TEST(ServePipeline, RepeatedRunsMatchRepeatedOracleRuns) {
  // Two runs on one stage-attributed Server must match two runs on one
  // oracle Server — including the second run's metrics, which accumulate
  // over the registry in both worlds. An intervening empty run() (zero
  // requests) must be harmless.
  const Config cfg = random_config(0x9E3779B9);
  ServerOptions oracle_opts = cfg.options;
  Server oracle_server(*cfg.mapping, oracle_opts);
  ServerOptions piped_opts = cfg.options;
  piped_opts.pipeline.workers = 2;
  Server piped_server(*cfg.mapping, piped_opts);

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("run=" + std::to_string(round));
    for (const Request& r : cfg.requests) {
      oracle_server.submit(r);
      piped_server.submit(r);
    }
    const ServeReport want = oracle_server.run();
    const ServeReport got = piped_server.run();
    expect_same_serve_report(got, want);
    if (round == 0) {
      const ServeReport idle = piped_server.run();  // nothing submitted
      EXPECT_TRUE(idle.responses.empty());
      EXPECT_TRUE(idle.batches.empty());
      const ServeReport idle_want = oracle_server.run();
      expect_same_serve_report(idle, idle_want);
    }
  }
}

TEST(ServePipeline, ConcurrentSubmissionMatchesSequential) {
  const Config cfg = random_config(0xC0FFEE7);
  const ServeReport sequential = run_server(cfg, 1);

  ServerOptions opts = cfg.options;
  opts.pipeline.workers = 8;
  Server server(*cfg.mapping, opts);
  std::vector<std::thread> submitters;
  for (unsigned t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = t; i < cfg.requests.size(); i += 4) {
        server.submit(cfg.requests[i]);
      }
    });
  }
  for (auto& th : submitters) th.join();
  expect_same_serve_report(server.run(), sequential);
}

// ---------------------------------------------------------------------------
// Forest side.

struct TenantConfig {
  std::unique_ptr<CompleteBinaryTree> tree;
  std::unique_ptr<TreeMapping> mapping;
  TenantOptions options;
  std::vector<Request> requests;
  std::unique_ptr<fault::FaultPlan> faults;
};

struct ForestConfig {
  ForestOptions options;
  std::vector<TenantConfig> tenants;
};

ForestConfig random_forest(std::uint64_t seed) {
  Rng rng(seed);
  ForestConfig cfg;
  cfg.options.tick_cycles = rng.between(1, 6);
  cfg.options.replicas = static_cast<std::uint32_t>(rng.between(1, 6));
  cfg.options.drr_quantum_nodes = rng.between(8, 48);
  const std::size_t tenant_count = rng.between(2, 6);
  cfg.options.global_queue_bound =
      rng.chance(1, 2) ? rng.between(tenant_count, 48) : 0;

  for (std::size_t i = 0; i < tenant_count; ++i) {
    TenantConfig t;
    const std::uint32_t levels = static_cast<std::uint32_t>(rng.between(4, 9));
    t.tree = std::make_unique<CompleteBinaryTree>(levels);
    const std::uint32_t modules =
        static_cast<std::uint32_t>(rng.between(3, 17));
    if (rng.chance(1, 2)) {
      t.mapping = std::make_unique<ColorMapping>(
          make_optimal_color_mapping(*t.tree, modules));
    } else {
      t.mapping = std::make_unique<ModuloMapping>(*t.tree, modules);
    }
    t.options.rate = static_cast<double>(rng.between(1, 8));
    t.options.weight = rng.between(1, 5);
    t.options.admission.queue_bound = rng.between(1, 24);
    t.options.admission.overflow =
        rng.chance(1, 2) ? OverflowPolicy::kShed : OverflowPolicy::kBlock;
    t.options.batch.max_batch_nodes = rng.between(2, 40);
    t.options.batch.max_wait_cycles = rng.between(0, 10);
    if (rng.chance(1, 3)) {
      t.options.retry.max_retries = static_cast<std::uint32_t>(rng.between(1, 2));
      t.options.retry.attempt_timeout_cycles = rng.between(2, 8);
    }

    const std::size_t count = rng.between(8, 36);
    const std::uint32_t clients =
        static_cast<std::uint32_t>(rng.between(1, 3));
    std::uint64_t clock = rng.below(16);
    std::vector<std::uint64_t> next_seq(clients, 0);
    for (std::size_t k = 0; k < count; ++k) {
      clock += rng.below(4);
      Request r;
      r.client = static_cast<std::uint32_t>(rng.below(clients));
      r.seq = next_seq[r.client]++;
      r.submit_cycle = clock;
      r.deadline_cycles = rng.chance(1, 4) ? rng.between(2, 24) : 0;
      const std::size_t nodes = rng.below(6);
      for (std::size_t n = 0; n < nodes; ++n) {
        const std::uint32_t level =
            static_cast<std::uint32_t>(rng.below(levels));
        r.nodes.push_back(v(rng.below(pow2(level)), level));
      }
      t.requests.push_back(std::move(r));
    }
    cfg.tenants.push_back(std::move(t));
  }
  return cfg;
}

ForestReport run_forest(const ForestConfig& cfg, unsigned pipeline_workers) {
  ForestOptions opts = cfg.options;
  opts.pipeline.workers = pipeline_workers;
  Forest forest(opts);
  for (const TenantConfig& t : cfg.tenants) {
    TenantOptions topts = t.options;
    if (t.faults != nullptr) topts.engine.faults = t.faults.get();
    forest.add_tenant(*t.mapping, std::move(topts));
  }
  for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
    for (const Request& r : cfg.tenants[i].requests) {
      forest.submit(static_cast<std::uint32_t>(i), r);
    }
  }
  return forest.run();
}

void expect_same_forest_report(const ForestReport& got,
                               const ForestReport& want) {
  ASSERT_EQ(got.tenants.size(), want.tenants.size());
  for (std::size_t i = 0; i < got.tenants.size(); ++i) {
    SCOPED_TRACE("tenant=" + std::to_string(i));
    const TenantReport& a = got.tenants[i];
    const TenantReport& b = want.tenants[i];
    ASSERT_EQ(a.name, b.name);
    expect_same_responses(a.responses, b.responses);
    expect_same_batches(a.batches, b.batches);
    expect_same_lanes(a.lanes, b.lanes);
    ASSERT_EQ(a.served_nodes, b.served_nodes);
    // Tenant metric sections never carry pipeline wall-time; they must be
    // identical outright.
    ASSERT_EQ(a.metrics.dump(), b.metrics.dump());
  }
  ASSERT_EQ(got.ticks, want.ticks);
  ASSERT_EQ(got.rounds, want.rounds);
  ASSERT_EQ(got.final_cycle, want.final_cycle);
  ASSERT_EQ(got.plan.to_json().dump(), want.plan.to_json().dump());
  // The rollup: "tenants" and "plan" identical; the "forest" aggregate is
  // identical modulo its stage-attribution section.
  const Json* got_forest = got.metrics.find("forest");
  const Json* want_forest = want.metrics.find("forest");
  ASSERT_NE(got_forest, nullptr);
  ASSERT_NE(want_forest, nullptr);
  expect_same_metrics_but(*got_forest, *want_forest, "pipeline");
  ASSERT_EQ(got.metrics.find("tenants")->dump(),
            want.metrics.find("tenants")->dump());
  ASSERT_EQ(got.metrics.find("plan")->dump(),
            want.metrics.find("plan")->dump());
}

TEST(ServePipeline, ForestMatchesOracleAtEveryWorkerCount) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ForestConfig cfg = random_forest(seed * 7919);
    const ForestReport oracle = run_forest(cfg, 0);
    std::size_t total = 0;
    for (const TenantConfig& t : cfg.tenants) total += t.requests.size();
    ASSERT_EQ(oracle.count(RequestStatus::kOk) +
                  oracle.count(RequestStatus::kShed) +
                  oracle.count(RequestStatus::kExpired),
              total);

    for (const unsigned workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("pipeline_workers=" + std::to_string(workers));
      const ForestReport piped = run_forest(cfg, workers);
      expect_same_forest_report(piped, oracle);
      std::uint64_t batches = 0;
      for (const TenantReport& t : oracle.tenants) batches += t.batches.size();
      expect_pipeline_stats_shape(*piped.metrics.find("forest"), workers,
                                  batches);
    }
  }
}

TEST(ServePipeline, FaultedForestRunsOnThePipelineAndMatchesOracle) {
  ForestConfig cfg = random_forest(0xF0BE57);
  // One faulted tenant among healthy ones: its lanes degrade in the same
  // round barrier that executes everyone else's.
  TenantConfig& t = cfg.tenants[1];
  t.faults = random_faults(t.mapping->num_modules(), 0xF0BE57);
  t.options.retry.max_retries = 2;
  t.options.retry.attempt_timeout_cycles = 8;

  const ForestReport oracle = run_forest(cfg, 0);
  ASSERT_TRUE(oracle.metrics.find("forest")->find("pipeline") == nullptr);
  for (const TenantReport& tr : oracle.tenants) {
    expect_responses_match_lanes(tr.responses, tr.lanes);
  }
  std::uint64_t batches = 0;
  for (const TenantReport& tr : oracle.tenants) batches += tr.batches.size();
  for (const unsigned workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("pipeline_workers=" + std::to_string(workers));
    const ForestReport piped = run_forest(cfg, workers);
    expect_same_forest_report(piped, oracle);
    expect_pipeline_stats_shape(*piped.metrics.find("forest"), workers,
                                batches);
  }
}

// ---------------------------------------------------------------------------
// Stage counters accumulate across runs, like every registry instrument.

/// The second snapshot extends the first: no stage_ns counter decreases,
/// and rounds and batches are the sums over both runs.
void expect_cumulative(const Json& first, const Json& second,
                       std::uint64_t rounds, std::uint64_t batches) {
  const Json* a = first.find("pipeline");
  const Json* b = second.find("pipeline");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (const char* stage : kStages) {
    EXPECT_GE(b->find("stage_ns")->find(stage)->as_uint(),
              a->find("stage_ns")->find(stage)->as_uint())
        << stage;
  }
  EXPECT_EQ(b->find("rounds")->as_uint(), rounds);
  EXPECT_EQ(b->find("batches")->as_uint(), batches);
}

TEST(ServePipeline, StageCountersAccumulateAcrossRuns) {
  {
    const Config cfg = random_config(0x5EED5);
    ServerOptions opts = cfg.options;
    opts.pipeline.workers = 2;
    Server server(*cfg.mapping, opts);
    std::vector<ServeReport> reports;
    for (int run = 0; run < 2; ++run) {
      for (const Request& r : cfg.requests) server.submit(r);
      reports.push_back(server.run());
    }
    expect_cumulative(reports[0].metrics, reports[1].metrics,
                      reports[0].rounds + reports[1].rounds,
                      reports[0].batches.size() + reports[1].batches.size());
  }
  {
    const ForestConfig cfg = random_forest(0x5EED5);
    ForestOptions opts = cfg.options;
    opts.pipeline.workers = 2;
    Forest forest(opts);
    for (const TenantConfig& t : cfg.tenants) {
      forest.add_tenant(*t.mapping, t.options);
    }
    std::vector<ForestReport> reports;
    std::uint64_t rounds = 0;
    std::uint64_t batches = 0;
    for (int run = 0; run < 2; ++run) {
      for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
        for (const Request& r : cfg.tenants[i].requests) {
          forest.submit(static_cast<std::uint32_t>(i), r);
        }
      }
      reports.push_back(forest.run());
      rounds += reports.back().rounds;
      for (const TenantReport& t : reports.back().tenants) {
        batches += t.batches.size();
      }
    }
    expect_cumulative(*reports[0].metrics.find("forest"),
                      *reports[1].metrics.find("forest"), rounds, batches);
  }
}

// ---------------------------------------------------------------------------
// Chunk boundaries and exceptions. With two or more threads the executor's
// workers resolve fixed chunks of 32 cuts while the tick loop runs, and
// close_round() publishes the last, partial chunk. Under the options below
// every admitted one-node request is its own cut, in submission order, so
// a stream's length sets the round's cut count.

template <typename Options>
Options one_cut_per_request() {
  Options o;
  o.admission.queue_bound = 4096;
  o.batch.max_batch_nodes = 1;
  o.batch.max_wait_cycles = 0;
  return o;
}

/// `count` one-node requests on the leaves of `tree`, every one submitted
/// at cycle 1 by one client, so one tick admits and cuts them all.
std::vector<Request> one_node_requests(const CompleteBinaryTree& tree,
                                       std::size_t count) {
  const std::uint32_t bottom = tree.levels() - 1;
  std::vector<Request> requests(count);
  for (std::size_t k = 0; k < count; ++k) {
    requests[k].seq = k;
    requests[k].submit_cycle = 1;
    requests[k].nodes = {v((k * 37) % pow2(bottom), bottom)};
  }
  return requests;
}

std::uint64_t stage_count(const Json& metrics, const char* key) {
  return metrics.find("pipeline")->find(key)->as_uint();
}

TEST(ServePipeline, ChunkBoundariesMatchTheOneThreadRun) {
  const CompleteBinaryTree tree(10);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 7));
  const mem::MemoryBackend memory(mapping);
  for (const std::size_t cuts : {0u, 1u, 31u, 32u, 33u, 65u}) {
    SCOPED_TRACE("cuts=" + std::to_string(cuts));
    // The 0-cut round still has intake: five requests dead on arrival (the
    // tick that takes them in, cycle 4, is past their 1-cycle deadline).
    std::vector<Request> requests =
        one_node_requests(tree, cuts == 0 ? 5 : cuts);
    if (cuts == 0) {
      for (Request& r : requests) r.deadline_cycles = 1;
    }
    const auto run = [&](unsigned threads) {
      ServerOptions opts = one_cut_per_request<ServerOptions>();
      opts.replicas = 3;
      opts.memory = &memory;
      opts.pipeline.workers = threads;
      Server server(mapping, opts);
      for (const Request& r : requests) server.submit(r);
      return server.run();
    };
    const ServeReport want = run(1);
    ASSERT_EQ(want.rounds, 1u);
    ASSERT_EQ(want.batches.size(), cuts);
    ASSERT_EQ(stage_count(want.metrics, "batches"), cuts);
    ASSERT_EQ(stage_count(want.metrics, "max_in_flight"), cuts);
    ASSERT_EQ(want.memory.nodes, cuts);
    for (const unsigned threads : {2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const ServeReport got = run(threads);
      expect_same_serve_report(got, want);
      EXPECT_EQ(got.memory, want.memory);
      EXPECT_EQ(stage_count(got.metrics, "batches"), cuts);
      EXPECT_EQ(stage_count(got.metrics, "max_in_flight"), cuts);
    }
  }
}

TEST(ServePipeline, ForestRetryRoundEndsOnAPartialChunk) {
  const CompleteBinaryTree tree(10);
  const ColorMapping color(make_optimal_color_mapping(tree, 7));
  const ModuloMapping modulo(tree, 5);
  const mem::MemoryBackend memory(color);
  const std::vector<Request> requests[] = {one_node_requests(tree, 60),
                                           one_node_requests(tree, 45)};
  const auto run = [&](unsigned threads) {
    ForestOptions opts;
    opts.replicas = 2;
    opts.pipeline.workers = threads;
    Forest forest(opts);
    TenantOptions t = one_cut_per_request<TenantOptions>();
    t.retry.max_retries = 1;
    t.retry.attempt_timeout_cycles = 2;
    t.memory = &memory;
    forest.add_tenant(color, t);
    t.memory = nullptr;
    forest.add_tenant(modulo, t);
    for (std::uint32_t i = 0; i < 2; ++i) {
      for (const Request& r : requests[i]) forest.submit(i, r);
    }
    return forest.run();
  };
  const ForestReport want = run(1);
  // One retry round; its cuts are the retried requests, one each.
  ASSERT_EQ(want.rounds, 2u);
  std::uint64_t retried = 0;
  for (const TenantReport& t : want.tenants) {
    for (const Response& r : t.responses) retried += r.retries;
  }
  const Json& forest_metrics = *want.metrics.find("forest");
  ASSERT_EQ(stage_count(forest_metrics, "batches"), 105u + retried);
  ASSERT_EQ(stage_count(forest_metrics, "max_in_flight"), 105u);
  ASSERT_GT(retried, 32u);
  ASSERT_NE(retried % 32, 0u) << "the retry round ends on a whole chunk";
  for (const unsigned threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ForestReport got = run(threads);
    expect_same_forest_report(got, want);
    for (std::size_t i = 0; i < got.tenants.size(); ++i) {
      EXPECT_EQ(got.tenants[i].memory, want.tenants[i].memory) << i;
    }
    EXPECT_EQ(stage_count(*got.metrics.find("forest"), "batches"),
              105u + retried);
  }
}

/// Executor thread counts as (workers, pipeline.workers): the 1-thread run
/// first, then workers that resolve while the tick loop runs.
constexpr std::pair<unsigned, unsigned> kThreadCounts[] = {
    {1, 0}, {2, 0}, {8, 0}, {1, 2}, {1, 8}};

std::string thread_trace(std::pair<unsigned, unsigned> threads) {
  return "workers=" + std::to_string(threads.first) +
         " pipeline.workers=" + std::to_string(threads.second);
}

/// What `run` throws as a std::runtime_error; "" when it returns.
template <typename Run>
std::string thrown_by(Run&& run) {
  try {
    run();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ServePipeline, ThrowingResolveReachesRunAtEveryThreadCount) {
  const CompleteBinaryTree tree(8);
  const ColorMapping base(make_optimal_color_mapping(tree, 7));
  // Two inner nodes no leaf request names; the first poisons cut 10
  // (chunk 0), the second cut 75 (chunk 2) — in the forest, where DRR
  // lets each tenant cut 32 batches a tick, cuts 10 and 139 (chunk 4).
  const Node first = v(1, 6);
  const Node second = v(2, 6);
  const PoisonMapping poisoned(base, {first, second});
  std::vector<Request> requests = one_node_requests(tree, 100);
  requests[10].nodes = {first};
  requests[75].nodes = {second};
  const std::vector<Request> clean = one_node_requests(tree, 100);
  const std::string want = "poison node (6, 1)";

  for (const auto& threads : kThreadCounts) {
    SCOPED_TRACE(thread_trace(threads));
    ServerOptions opts = one_cut_per_request<ServerOptions>();
    opts.replicas = 2;
    opts.workers = threads.first;
    opts.pipeline.workers = threads.second;
    Server server(poisoned, opts);
    for (const Request& r : requests) server.submit(r);
    EXPECT_EQ(thrown_by([&] { (void)server.run(); }), want);

    ForestOptions fopts;
    fopts.replicas = 3;
    fopts.workers = threads.first;
    fopts.pipeline.workers = threads.second;
    Forest forest(fopts);
    forest.add_tenant(poisoned, one_cut_per_request<TenantOptions>());
    forest.add_tenant(base, one_cut_per_request<TenantOptions>());
    for (const Request& r : requests) forest.submit(0, r);
    for (const Request& r : clean) forest.submit(1, r);
    EXPECT_EQ(thrown_by([&] { (void)forest.run(); }), want);
  }
}

TEST(ServePipeline, ThrowingObservationReachesRunAtEveryThreadCount) {
  // A migration planner folds each cut batch's base colors into its heat
  // ledger, so a poisoned base throws in the observation of cut 288, the
  // first of chunk 9; chunks 10-12 hold observing cuts too and, with
  // workers, may be claimed already: they wait for their turn, then skip
  // their observations. Workers are coloring earlier chunks with the
  // planner's epoch mappings and touching the arenas meanwhile, and they
  // must stop before the planner goes (the asan preset reports a use
  // after free if not).
  const CompleteBinaryTree tree(12);
  const ColorMapping base(make_optimal_color_mapping(tree, 13));
  const Node poison = v(5, 10);  // in the left half; the paths are right
  const PoisonMapping poisoned(base, {poison});
  const mem::MemoryBackend memory(base);
  const std::uint32_t bottom = tree.levels() - 1;
  std::vector<Request> requests(400);
  for (std::size_t k = 0; k < requests.size(); ++k) {
    requests[k].seq = k;
    requests[k].submit_cycle = 1;
    Node n = v(pow2(bottom) / 2 + (k * 97) % (pow2(bottom) / 2), bottom);
    requests[k].nodes.push_back(n);
    while (n.level > 0) {
      n = parent(n);
      requests[k].nodes.push_back(n);
    }
  }
  requests[288].nodes = {poison};

  // An adaptive tenant whose second candidate throws on (6, 1), requested
  // by its 40th request: the forest cuts 32 batches of each tenant a tick,
  // so that is cut 72, in chunk 2, the adaptive tenant's second observing
  // chunk. The plain tenant's own mapping throws on (6, 2), its 70th
  // request: cut 166, chunk 5, which a worker may resolve first. The
  // lower chunk's throw, the observation's, reaches run().
  const CompleteBinaryTree small(8);
  const ColorMapping color(make_optimal_color_mapping(small, 7));
  const PoisonMapping observed(color, {v(1, 6)});
  const PoisonMapping colored(color, {v(2, 6)});
  std::vector<Request> adaptive_requests = one_node_requests(small, 100);
  adaptive_requests[40].nodes = {v(1, 6)};
  std::vector<Request> plain_requests = one_node_requests(small, 100);
  plain_requests[70].nodes = {v(2, 6)};

  for (const auto& threads : kThreadCounts) {
    SCOPED_TRACE(thread_trace(threads));
    ServerOptions opts = one_cut_per_request<ServerOptions>();
    opts.batch.max_batch_nodes = tree.levels();  // one path per cut
    opts.replicas = 2;
    opts.memory = &memory;
    opts.migration.epoch_batches = 4;
    opts.migration.top_k = 2;
    opts.migration.subtree_level = 4;
    opts.workers = threads.first;
    opts.pipeline.workers = threads.second;
    Server server(poisoned, opts);
    for (const Request& r : requests) server.submit(r);
    EXPECT_EQ(thrown_by([&] { (void)server.run(); }), "poison node (10, 5)");

    ForestOptions fopts;
    fopts.replicas = 3;
    fopts.workers = threads.first;
    fopts.pipeline.workers = threads.second;
    Forest forest(fopts);
    TenantOptions adaptive = one_cut_per_request<TenantOptions>();
    adaptive.adaptive.epoch_batches = 8;
    adaptive.adaptive.candidates = {&color, &observed};
    forest.add_tenant(color, adaptive);
    forest.add_tenant(colored, one_cut_per_request<TenantOptions>());
    forest.submit(0, adaptive_requests);
    forest.submit(1, plain_requests);
    EXPECT_EQ(thrown_by([&] { (void)forest.run(); }), "poison node (6, 1)");
  }
}

TEST(ServePipeline, EpochObservationsMatchTheOneThreadRunAcrossChunks) {
  // Three tenants: "hot" with a migration planner, "adaptive" with a
  // selector, "plain" with neither. Under 1-cycle ticks, no batching wait,
  // a node cap of one root path and unmetered DRR credit, every request is
  // its own cut and each tick cuts everything it took in, tenant by
  // tenant. Round 1 cuts, in order:
  //   cycle 1: hot 0-19, adaptive 20-39, plain 40-49
  //   cycle 2: plain 50-129
  //   cycle 3: hot 130-164, adaptive 165-174
  // so observing cuts straddle the chunk boundaries at 32 and 160, chunks
  // 2 and 3 (cuts 64-127) observe nothing between observing chunks 1 and
  // 4, and the round ends on a partial chunk 5. Timed-out attempts retry
  // once, in a second round.
  const CompleteBinaryTree tree(10);
  const ColorMapping color(make_optimal_color_mapping(tree, 15));
  const ModuloMapping modulo(tree, color.num_modules());
  const std::uint32_t bottom = tree.levels() - 1;
  Rng rng(0x0B5E7FE);
  // `count` root paths at `cycle`, three in four under the first 32 leaves.
  const auto paths = [&](std::vector<Request>& out, std::size_t count,
                         std::uint64_t cycle) {
    for (std::size_t k = 0; k < count; ++k) {
      Request r;
      r.seq = out.size();
      r.submit_cycle = cycle;
      Node n = v(rng.chance(3, 4) ? rng.below(32) : rng.below(pow2(bottom)),
                 bottom);
      r.nodes.push_back(n);
      while (n.level > 0) {
        n = parent(n);
        r.nodes.push_back(n);
      }
      out.push_back(std::move(r));
    }
  };
  std::vector<Request> streams[3];
  paths(streams[0], 20, 1);
  paths(streams[1], 20, 1);
  paths(streams[2], 10, 1);
  paths(streams[2], 80, 2);
  paths(streams[0], 35, 3);
  paths(streams[1], 10, 3);

  const auto run = [&](std::pair<unsigned, unsigned> threads) {
    ForestOptions fopts;
    fopts.tick_cycles = 1;
    fopts.replicas = 5;
    fopts.drr_quantum_nodes = 1u << 20;
    fopts.workers = threads.first;
    fopts.pipeline.workers = threads.second;
    Forest forest(fopts);
    TenantOptions t = one_cut_per_request<TenantOptions>();
    t.batch.max_batch_nodes = tree.levels();
    t.retry.max_retries = 1;
    t.retry.attempt_timeout_cycles = 4;
    TenantOptions hot = t;
    hot.name = "hot";
    hot.migration.epoch_batches = 4;
    hot.migration.top_k = 3;
    hot.migration.subtree_level = 3;
    TenantOptions adaptive = t;
    adaptive.name = "adaptive";
    adaptive.adaptive.epoch_batches = 4;
    adaptive.adaptive.candidates = {&modulo, &color};
    TenantOptions plain = t;
    plain.name = "plain";
    forest.add_tenant(color, hot);
    forest.add_tenant(modulo, adaptive);
    forest.add_tenant(color, plain);
    for (std::uint32_t i = 0; i < 3; ++i) forest.submit(i, streams[i]);
    return forest.run();
  };

  const ForestReport want = run(kThreadCounts[0]);
  // The round-1 cut order above: each tenant's cuts per cycle.
  const std::uint64_t cuts_at[3][3] = {{20, 0, 35}, {20, 0, 10}, {10, 80, 0}};
  std::uint64_t round_one = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::uint64_t cycle = 1; cycle <= 3; ++cycle) {
      std::uint64_t cuts = 0;
      for (const FormedBatch& b : want.tenants[i].batches) {
        cuts += b.formed_cycle == cycle ? 1 : 0;
        EXPECT_EQ(b.members.size(), 1u);
      }
      EXPECT_EQ(cuts, cuts_at[i][cycle - 1]) << i << " @" << cycle;
      round_one += cuts;
    }
  }
  ASSERT_EQ(round_one, 175u);
  ASSERT_EQ(want.rounds, 2u);
  std::uint64_t retried = 0;
  for (const TenantReport& t : want.tenants) {
    for (const Response& r : t.responses) {
      EXPECT_EQ(r.status, RequestStatus::kOk);
      retried += r.retries;
    }
  }
  ASSERT_GT(retried, 0u);
  std::uint64_t batches = 0;
  for (const TenantReport& t : want.tenants) batches += t.batches.size();
  ASSERT_EQ(batches, round_one + retried);  // one cut per retry in round 2
  // Both controllers decided on the way: the planner moved subtrees, and
  // the selector left modulo for COLOR.
  const Json* migration = want.tenants[0].metrics.find("migration");
  const Json* selection = want.tenants[1].metrics.find("adaptive");
  ASSERT_NE(migration, nullptr);
  ASSERT_NE(selection, nullptr);
  EXPECT_GT(migration->find("epochs_planned")->as_uint(), 1u);
  EXPECT_GT(migration->find("subtrees_moved")->as_uint(), 0u);
  EXPECT_GT(selection->find("switches")->as_uint(), 0u);

  for (std::size_t k = 1; k < std::size(kThreadCounts); ++k) {
    SCOPED_TRACE(thread_trace(kThreadCounts[k]));
    expect_same_forest_report(run(kThreadCounts[k]), want);
  }
}

TEST(ServePipeline, ObserveWaitIsZeroWithoutAnEpochController) {
  // Chunks without an observing cut take no turn, so a run without an
  // epoch controller never waits for one.
  const Config cfg = random_config(0x0B5E);
  for (const unsigned workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("pipeline_workers=" + std::to_string(workers));
    const ServeReport report = run_server(cfg, workers);
    ASSERT_GT(report.batches.size(), 0u);
    EXPECT_EQ(report.metrics.find("pipeline")
                  ->find("stage_ns")
                  ->find("observe_wait")
                  ->as_uint(),
              0u);
  }
}

/// Every batch's nodes strictly increase in (level, index): sorted and
/// deduplicated. Returns the nodes the batches coalesced away.
std::uint64_t expect_strictly_increasing(
    const std::vector<FormedBatch>& batches) {
  std::uint64_t coalesced = 0;
  for (const FormedBatch& b : batches) {
    for (std::size_t k = 1; k < b.nodes.size(); ++k) {
      EXPECT_LT(b.nodes[k - 1], b.nodes[k]) << "batch " << b.id << " @" << k;
    }
    coalesced += b.coalesced_nodes();
  }
  return coalesced;
}

TEST(ServePipeline, ReportedBatchNodesAreStrictlyIncreasing) {
  // Every cut is deduplicated by whichever thread claims its chunk, before
  // the slot's epoch controller, if any, observes it. The report holds
  // each batch's nodes in strictly increasing (level, index) order. E19's
  // paths share their upper levels, so every run coalesces.
  const Config cfg = e19_config(2);
  const LabelTreeMapping label(*cfg.tree, cfg.mapping->num_modules());
  for (const auto& threads : kThreadCounts) {
    SCOPED_TRACE(thread_trace(threads));
    ServerOptions opts = cfg.options;
    opts.workers = threads.first;
    opts.pipeline.workers = threads.second;
    {
      Server raw(*cfg.mapping, opts);
      raw.submit(cfg.requests);
      EXPECT_GT(expect_strictly_increasing(raw.run().batches), 0u);
    }
    {
      ServerOptions migrated = opts;
      migrated.migration.epoch_batches = 4;
      migrated.migration.top_k = 2;
      migrated.migration.subtree_level = 3;
      Server server(*cfg.mapping, migrated);
      server.submit(cfg.requests);
      const ServeReport report = server.run();
      ASSERT_NE(report.metrics.find("migration"), nullptr);
      EXPECT_GT(expect_strictly_increasing(report.batches), 0u);
    }
    ForestOptions fopts;
    fopts.tick_cycles = cfg.options.tick_cycles;
    fopts.replicas = 3;
    fopts.workers = threads.first;
    fopts.pipeline.workers = threads.second;
    Forest forest(fopts);
    TenantOptions adaptive;
    static_cast<SlotOptions&>(adaptive) = cfg.options;
    adaptive.adaptive.epoch_batches = 4;
    adaptive.adaptive.candidates = {cfg.mapping.get(), &label};
    forest.add_tenant(label, adaptive);
    TenantOptions plain;
    static_cast<SlotOptions&>(plain) = cfg.options;
    forest.add_tenant(*cfg.mapping, plain);
    forest.submit(0, cfg.requests);
    forest.submit(1, cfg.requests);
    const ForestReport report = forest.run();
    ASSERT_NE(report.tenants[0].metrics.find("adaptive"), nullptr);
    for (const TenantReport& t : report.tenants) {
      SCOPED_TRACE(t.name);
      EXPECT_GT(expect_strictly_increasing(t.batches), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// A retry round's faulted replay moves an earlier round's completion.

/// The probe: on one lane of an 8-level tree under ModuloMapping(tree, 2),
/// request A (client 0, cycle 0) holds the 21 odd-index level-6 nodes
/// (module 0) and request B (client 1, cycle 12) the 20 even-index ones
/// (module 1); every batch takes one request, each attempt has 20 cycles
/// and one retry, and module 1 fail-stops at cycle 28. A times out and its
/// retry is cut at cycle 24; replayed with it, B's last four accesses
/// drain at cycle 28 onto module 0 behind that retry, so B's first
/// attempt completes at 49, past its budget, and B must be retried too.
struct RetryProbe {
  CompleteBinaryTree tree{8};
  ModuloMapping mapping{tree, 2};
  fault::FaultPlan faults;
  std::vector<Request> requests;

  RetryProbe() {
    faults.fail_stop(1, 28);
    Request a, b;
    a.client = 0;
    b.client = 1;
    b.submit_cycle = 12;
    for (std::uint64_t i = 0; i < 21; ++i) a.nodes.push_back(v(2 * i + 1, 6));
    for (std::uint64_t i = 0; i < 20; ++i) b.nodes.push_back(v(2 * i, 6));
    requests = {a, b};
  }

  /// The slot options every run shares, over a Server's or a tenant's
  /// options.
  template <typename Options>
  [[nodiscard]] Options options() const {
    Options o;
    o.batch.max_batch_nodes = 1;
    o.batch.max_wait_cycles = 0;
    o.retry.max_retries = 1;
    o.retry.attempt_timeout_cycles = 20;
    o.retry.backoff_base_cycles = 1;
    o.retry.backoff_cap_cycles = 1;
    o.engine.faults = &faults;
    return o;
  }
};

/// The probe's outcome, whichever front-end served it: A's retry and B's
/// retry both ran, B's on module 0 behind everything left there.
void expect_probe_outcome(const std::vector<Response>& responses,
                          const std::vector<engine::EngineResult>& lanes) {
  ASSERT_NO_FATAL_FAILURE(expect_responses_match_lanes(responses, lanes));
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_EQ(lanes.size(), 1u);
  const Response& a = responses[0];
  const Response& b = responses[1];
  EXPECT_EQ(a.status, RequestStatus::kOk);
  EXPECT_EQ(a.retries, 1u);
  EXPECT_EQ(a.dispatch_cycle, 24u);
  EXPECT_EQ(a.completion_cycle, 45u);
  EXPECT_EQ(b.status, RequestStatus::kOk);
  EXPECT_EQ(b.retries, 1u) << "B's first attempt overstayed its budget";
  EXPECT_EQ(b.dispatch_cycle, 36u);
  EXPECT_EQ(b.completion_cycle, 69u);
  // B's first attempt: its record on the lane moved from 32 to 49.
  ASSERT_EQ(lanes[0].records.size(), 4u);
  EXPECT_EQ(lanes[0].records[1].completion, 49u);
}

TEST(Server, RetryRoundsRereadFaultedLanes) {
  const RetryProbe probe;
  std::optional<ServeReport> want;
  for (const auto& threads : kThreadCounts) {
    SCOPED_TRACE(thread_trace(threads));
    ServerOptions opts = probe.options<ServerOptions>();
    opts.tick_cycles = 4;
    opts.workers = threads.first;
    opts.pipeline.workers = threads.second;
    Server server(probe.mapping, opts);
    server.submit(probe.requests);
    const ServeReport got = server.run();
    ASSERT_NO_FATAL_FAILURE(expect_probe_outcome(got.responses, got.replicas));
    EXPECT_EQ(got.rounds, 3u);
    EXPECT_EQ(got.final_cycle, 69u);
    if (!want) {
      want.emplace(got);
      continue;
    }
    expect_same_serve_report(got, *want);
  }
}

TEST(ServeForest, RetryRoundsRereadFaultedLanes) {
  const RetryProbe probe;
  std::optional<ForestReport> want;
  for (const auto& threads : kThreadCounts) {
    SCOPED_TRACE(thread_trace(threads));
    ForestOptions opts;
    opts.tick_cycles = 4;
    opts.workers = threads.first;
    opts.pipeline.workers = threads.second;
    Forest forest(opts);
    forest.add_tenant(probe.mapping, probe.options<TenantOptions>());
    forest.submit(0, probe.requests);
    const ForestReport got = forest.run();
    ASSERT_EQ(got.tenants.size(), 1u);
    ASSERT_NO_FATAL_FAILURE(
        expect_probe_outcome(got.tenants[0].responses, got.tenants[0].lanes));
    EXPECT_EQ(got.rounds, 3u);
    EXPECT_EQ(got.final_cycle, 69u);
    if (!want) {
      want.emplace(got);
      continue;
    }
    expect_same_forest_report(got, *want);
  }
}

// ---------------------------------------------------------------------------
// DRR credit: weight * quantum must fit 64 bits, and accrual saturates.

TEST(ServeForest, DrrCreditPastU64IsRejected) {
  constexpr std::uint64_t kQuantum = 32;
  // 2^59 * 32 wraps to 0, which no batch ever affords; 2^59 + 1 wraps to
  // 32, a silent demotion. 2^58 * 32 = 2^63 fits.
  for (const std::uint64_t weight :
       {std::uint64_t{1} << 59, (std::uint64_t{1} << 59) + 1,
        ~std::uint64_t{0}}) {
    SCOPED_TRACE("weight=" + std::to_string(weight));
    EXPECT_THROW(DeficitRoundRobin::check(weight, kQuantum),
                 std::invalid_argument);
    EXPECT_THROW(DeficitRoundRobin({1, weight}, kQuantum),
                 std::invalid_argument);
  }
  DeficitRoundRobin::check(std::uint64_t{1} << 58, kQuantum);
  DeficitRoundRobin::check(~std::uint64_t{0}, 0);  // quantum 0 behaves as 1

  const CompleteBinaryTree tree(8);
  const ModuloMapping mapping(tree, 2);
  Request one;
  one.nodes = {v(5, 7)};
  for (const auto& threads : kThreadCounts) {
    SCOPED_TRACE(thread_trace(threads));
    ForestOptions opts;
    opts.drr_quantum_nodes = kQuantum;
    opts.workers = threads.first;
    opts.pipeline.workers = threads.second;
    Forest forest(opts);
    TenantOptions heavy;
    heavy.batch.max_wait_cycles = 0;  // due on the tick that admits it
    heavy.weight = std::uint64_t{1} << 59;
    ASSERT_THROW((void)forest.add_tenant(mapping, heavy),
                 std::invalid_argument);
    ASSERT_EQ(forest.tenant_count(), 0u);
    heavy.weight = std::uint64_t{1} << 58;
    ASSERT_EQ(forest.add_tenant(mapping, heavy), 0u);
    forest.submit(0, one);
    const ForestReport report = forest.run();
    const Response& r = report.tenants[0].responses[0];
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.dispatch_cycle, 0u);
  }
}

TEST(ServeForest, DrrCreditSaturates) {
  DeficitRoundRobin drr({std::uint64_t{1} << 58}, 32);
  drr.begin_turn(0);
  EXPECT_EQ(drr.deficit(0), std::uint64_t{1} << 63);
  drr.begin_turn(0);
  EXPECT_EQ(drr.deficit(0), ~std::uint64_t{0});
  drr.begin_turn(0);
  EXPECT_EQ(drr.deficit(0), ~std::uint64_t{0});

  // A tenant of credit 2^63 that waits one tick before its batch is due
  // holds two ticks' credit when it is: it cuts on that tick. A wrapped
  // deficit (0) would have held the cut back a tick.
  const CompleteBinaryTree tree(8);
  const ModuloMapping mapping(tree, 2);
  Request one;
  one.nodes = {v(5, 7)};
  for (const auto& threads : kThreadCounts) {
    SCOPED_TRACE(thread_trace(threads));
    ForestOptions opts;
    opts.tick_cycles = 1;
    opts.drr_quantum_nodes = 32;
    opts.workers = threads.first;
    opts.pipeline.workers = threads.second;
    Forest forest(opts);
    TenantOptions heavy;
    heavy.weight = std::uint64_t{1} << 58;
    heavy.batch.max_batch_nodes = 64;
    heavy.batch.max_wait_cycles = 1;
    forest.add_tenant(mapping, heavy);
    forest.submit(0, one);
    const Response r = forest.run().tenants[0].responses[0];
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.dispatch_cycle, 1u);
  }
}

// ---------------------------------------------------------------------------
// A batch cap of 2^63: each batch allocates the nodes it takes, not its cap.

constexpr std::uint64_t kHugeCap = std::uint64_t{1} << 63;
constexpr std::uint64_t kReachedNoBatch = 96;

/// One-node and few-node requests (1-4 nodes each) from four clients.
std::vector<Request> small_requests(std::uint32_t levels, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> out;
  std::vector<std::uint64_t> next_seq(4, 0);
  std::uint64_t clock = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    clock += rng.below(3);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(4));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    const std::uint64_t nodes = rng.chance(1, 2) ? 1 : rng.between(2, 4);
    for (std::uint64_t k = 0; k < nodes; ++k) {
      const auto level = static_cast<std::uint32_t>(rng.below(levels));
      r.nodes.push_back(v(rng.below(pow2(level)), level));
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// Slot options under batch cap `cap`. At most 16 requests of at most 4
/// nodes are pending, so no batch reaches kReachedNoBatch nodes, and the
/// blocking queue without deadlines serves every request.
template <typename Options>
Options small_batches(std::uint64_t cap) {
  Options o;
  o.admission.queue_bound = 16;
  o.admission.overflow = OverflowPolicy::kBlock;
  o.batch.max_batch_nodes = cap;
  o.batch.max_wait_cycles = 6;
  return o;
}

/// The most requests any batch took.
std::size_t widest(const std::vector<FormedBatch>& batches) {
  std::size_t most = 0;
  for (const FormedBatch& b : batches) most = std::max(most, b.members.size());
  return most;
}

TEST(Server, BatchCapOf2To63ServesEveryRequest) {
  const CompleteBinaryTree tree(9);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 15));
  const std::vector<Request> requests = small_requests(tree.levels(), 0xCA9);
  const auto run = [&](std::uint64_t cap,
                       std::pair<unsigned, unsigned> threads) {
    ServerOptions opts = small_batches<ServerOptions>(cap);
    opts.workers = threads.first;
    opts.pipeline.workers = threads.second;
    Server server(mapping, opts);
    server.submit(requests);
    return server.run();
  };
  const ServeReport want = run(kReachedNoBatch, kThreadCounts[0]);
  EXPECT_GT(widest(want.batches), 1u);
  for (const auto& threads : kThreadCounts) {
    SCOPED_TRACE(thread_trace(threads));
    const ServeReport got = run(kHugeCap, threads);
    ASSERT_EQ(got.count(RequestStatus::kOk), requests.size());
    expect_same_serve_report(got, want);
  }
}

TEST(ServeForest, BatchCapOf2To63ServesEveryRequest) {
  const CompleteBinaryTree tree(9);
  const ColorMapping color(make_optimal_color_mapping(tree, 15));
  const ModuloMapping modulo(tree, 7);
  const std::vector<Request> requests[] = {
      small_requests(tree.levels(), 0xF0CA9),
      small_requests(tree.levels(), 0xF1CA9)};
  const auto run = [&](std::uint64_t cap,
                       std::pair<unsigned, unsigned> threads) {
    ForestOptions opts;
    opts.workers = threads.first;
    opts.pipeline.workers = threads.second;
    Forest forest(opts);
    forest.add_tenant(color, small_batches<TenantOptions>(cap));
    forest.add_tenant(modulo, small_batches<TenantOptions>(cap));
    for (std::uint32_t id = 0; id < 2; ++id) forest.submit(id, requests[id]);
    return forest.run();
  };
  const ForestReport want = run(kReachedNoBatch, kThreadCounts[0]);
  for (const TenantReport& t : want.tenants) EXPECT_GT(widest(t.batches), 1u);
  for (const auto& threads : kThreadCounts) {
    SCOPED_TRACE(thread_trace(threads));
    const ForestReport got = run(kHugeCap, threads);
    ASSERT_EQ(got.tenants.size(), 2u);
    for (std::uint32_t id = 0; id < 2; ++id) {
      ASSERT_EQ(got.tenants[id].responses.size(), requests[id].size());
      for (const Response& r : got.tenants[id].responses) {
        ASSERT_EQ(r.status, RequestStatus::kOk) << "tenant " << id;
      }
    }
    expect_same_forest_report(got, want);
  }
}

}  // namespace
}  // namespace pmtree::serve
