// Batch-executor thread-count tests (DESIGN.md §14): Server and Forest run
// every cut batch through one executor that resolves, feeds and drains
// each lane at the round barrier. A run must be bit-identical,
// request-for-request, at 1, 2 and 8 stage-attributed threads
// (pipeline.workers) to the 1-thread run without attribution
// (pipeline.workers == 0, the reference) — responses, batches, per-lane
// trajectories, tick/round counts and every metrics section. The ONLY
// tolerated difference is the "pipeline" stage-attribution section, which
// measures wall time and is checked for shape and for accumulating across
// runs instead. Faulted configurations run under the same contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree::serve {
namespace {

// ---------------------------------------------------------------------------
// Shared comparison helpers.

void expect_same_responses(const std::vector<Response>& got,
                           const std::vector<Response>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Response& a = got[i];
    const Response& b = want[i];
    ASSERT_EQ(a.client, b.client) << i;
    ASSERT_EQ(a.seq, b.seq) << i;
    ASSERT_EQ(a.status, b.status) << i;
    ASSERT_EQ(a.submit_cycle, b.submit_cycle) << i;
    ASSERT_EQ(a.admitted_cycle, b.admitted_cycle) << i;
    ASSERT_EQ(a.dispatch_cycle, b.dispatch_cycle) << i;
    ASSERT_EQ(a.completion_cycle, b.completion_cycle) << i;
    ASSERT_EQ(a.batch, b.batch) << i;
    ASSERT_EQ(a.retries, b.retries) << i;
  }
}

void expect_same_batches(const std::vector<FormedBatch>& got,
                         const std::vector<FormedBatch>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t b = 0; b < got.size(); ++b) {
    ASSERT_EQ(got[b].id, want[b].id) << b;
    ASSERT_EQ(got[b].formed_cycle, want[b].formed_cycle) << b;
    ASSERT_EQ(got[b].members, want[b].members) << b;
    ASSERT_EQ(got[b].nodes, want[b].nodes) << b;
    ASSERT_EQ(got[b].requested_nodes, want[b].requested_nodes) << b;
    // The resolve stage rebuilt the decomposition off the control plane;
    // it must be the exact C(D, c) the oracle's inline coalesce produced.
    ASSERT_EQ(got[b].decomposition.component_count(),
              want[b].decomposition.component_count())
        << b;
    ASSERT_EQ(got[b].decomposition.nodes(), want[b].decomposition.nodes())
        << b;
  }
}

void expect_same_lanes(const std::vector<engine::EngineResult>& got,
                       const std::vector<engine::EngineResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t l = 0; l < got.size(); ++l) {
    ASSERT_EQ(got[l].to_json().dump(), want[l].to_json().dump()) << "lane "
                                                                 << l;
  }
}

/// The pipelined metrics must equal the oracle's section-for-section,
/// with exactly one extra member allowed: "pipeline" (wall-time stage
/// attribution, the single deliberately non-deterministic export).
void expect_same_metrics_modulo_pipeline(const Json& got, const Json& want) {
  for (const auto& [key, value] : want.members()) {
    if (key == "pipeline") continue;  // both sides pipelined: wall time
    const Json* other = got.find(key);
    ASSERT_NE(other, nullptr) << "missing metrics section " << key;
    ASSERT_EQ(other->dump(), value.dump()) << "metrics section " << key;
  }
  for (const auto& [key, value] : got.members()) {
    (void)value;
    if (key == "pipeline") continue;
    ASSERT_NE(want.find(key), nullptr) << "extra metrics section " << key;
  }
}

constexpr const char* kStages[] = {"control", "resolve", "execute", "drain",
                                   "barrier"};

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
                                            "stage_ns", "simd_kernel"}));
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
  expect_same_metrics_modulo_pipeline(got.metrics, want.metrics);
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
  fault::FaultPlan::RandomOptions fopts;
  fopts.seed = rng();
  fopts.modules = modules;
  fopts.fail_fraction = 0.25;
  fopts.fail_window = 64;
  fopts.slowdown_count = 2;
  fopts.slowdown_window = 256;
  fopts.slowdown_max_length = 128;
  fopts.slowdown_max_period = 4;
  return std::make_unique<fault::FaultPlan>(fault::FaultPlan::random(fopts));
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
  expect_same_metrics_modulo_pipeline(*got_forest, *want_forest);
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

}  // namespace
}  // namespace pmtree::serve
