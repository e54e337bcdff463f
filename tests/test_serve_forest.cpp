// Determinism property tests for the multi-tenant forest (DESIGN.md §13):
// across randomized multi-tenant configurations — 2..16 tenants with mixed
// tree heights, template families (point / path / level-run / composite
// payloads), Zipf-skewed and uniform arrivals, per-tenant quotas and
// optional per-tenant fault plans — the multi-threaded forest must be
// bit-identical, request-for-request, to the single-threaded oracle at
// 1/2/8 workers, with and without a sharded replica pool. The suites
// below drive 60+ seeded configurations through that contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
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
#include "fault_plans.hpp"
#include "serve_compare.hpp"

namespace pmtree::serve {
namespace {

/// Zipf-like skewed draw from [0, n): geometric bucket selection halves
/// toward the hot end, so index i is hit with probability roughly
/// proportional to a power-law tail — hot keys without floating point
/// (bit-identical generation on every platform).
std::uint64_t zipf_below(Rng& rng, std::uint64_t n) {
  std::uint64_t lo = 0;
  std::uint64_t hi = n;
  while (hi - lo > 1 && rng.chance(1, 2)) {
    hi = lo + (hi - lo + 1) / 2;
  }
  return lo + rng.below(hi - lo);
}

struct TenantConfig {
  std::unique_ptr<CompleteBinaryTree> tree;
  std::unique_ptr<TreeMapping> mapping;
  TenantOptions options;
  std::vector<Request> requests;
  // Owned here; run_with_workers wires it into the copied options so the
  // pointer survives moves (options.engine.faults must never dangle).
  std::unique_ptr<fault::FaultPlan> faults;
};

struct ForestConfig {
  ForestOptions options;
  std::vector<TenantConfig> tenants;

  [[nodiscard]] std::size_t total_requests() const {
    std::size_t n = 0;
    for (const TenantConfig& t : tenants) n += t.requests.size();
    return n;
  }
};

/// One request payload, drawn from the template families the serve layer
/// batches: a point lookup, a root-to-leaf path (P), a contiguous
/// level-run (L(K)), or a path+run composite (C) — indices Zipf-skewed
/// or uniform per the tenant's access pattern.
std::vector<Node> random_payload(Rng& rng, std::uint32_t levels, bool zipf) {
  const auto draw = [&](std::uint64_t n) {
    return zipf ? zipf_below(rng, n) : rng.below(n);
  };
  std::vector<Node> nodes;
  const std::uint64_t family = rng.below(4);
  if (family == 0) {  // point lookup (occasionally an empty probe)
    if (!rng.chance(1, 8)) {
      const std::uint32_t level = static_cast<std::uint32_t>(rng.below(levels));
      nodes.push_back(v(draw(pow2(level)), level));
    }
  } else if (family == 1) {  // root-to-leaf path
    const std::uint64_t leaf = draw(pow2(levels - 1));
    for (std::uint32_t l = 0; l < levels; ++l) {
      nodes.push_back(v(leaf >> (levels - 1 - l), l));
    }
  } else if (family == 2) {  // contiguous same-level run
    const std::uint32_t level =
        static_cast<std::uint32_t>(rng.between(1, levels - 1));
    const std::uint64_t len =
        rng.between(1, std::min<std::uint64_t>(pow2(level), 6));
    const std::uint64_t start = draw(pow2(level) - len + 1);
    for (std::uint64_t k = 0; k < len; ++k) {
      nodes.push_back(v(start + k, level));
    }
  } else {  // composite: short path + sibling run
    const std::uint64_t leaf = draw(pow2(levels - 1));
    for (std::uint32_t l = levels / 2; l < levels; ++l) {
      nodes.push_back(v(leaf >> (levels - 1 - l), l));
    }
    const std::uint32_t level = levels - 1;
    const std::uint64_t start =
        std::min<std::uint64_t>(leaf, pow2(level) - 3);
    for (std::uint64_t k = 0; k < 3; ++k) {
      nodes.push_back(v(start + k, level));
    }
  }
  return nodes;
}

ForestConfig random_forest(std::uint64_t seed) {
  Rng rng(seed);
  ForestConfig cfg;
  cfg.options.tick_cycles = rng.between(1, 6);
  cfg.options.replicas = static_cast<std::uint32_t>(rng.between(1, 6));
  cfg.options.drr_quantum_nodes = rng.between(8, 48);

  const std::size_t tenant_count = rng.between(2, 16);
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

    // Arrival process: Zipf-skewed hot keys arriving in bursts, or
    // uniform keys on a spread-out clock — mixed across tenants.
    const bool zipf = rng.chance(1, 2);
    const std::size_t count = rng.between(8, 36);
    const std::uint32_t clients =
        static_cast<std::uint32_t>(rng.between(1, 3));
    std::uint64_t clock = rng.below(16);
    std::vector<std::uint64_t> next_seq(clients, 0);
    for (std::size_t k = 0; k < count; ++k) {
      clock += zipf ? (rng.chance(2, 3) ? 0 : rng.between(1, 9))
                    : rng.below(4);
      Request r;
      r.client = static_cast<std::uint32_t>(rng.below(clients));
      r.seq = next_seq[r.client]++;
      r.submit_cycle = clock;
      r.deadline_cycles = rng.chance(1, 4) ? rng.between(2, 24) : 0;
      r.nodes = random_payload(rng, levels, zipf);
      t.requests.push_back(std::move(r));
    }
    cfg.tenants.push_back(std::move(t));
  }
  return cfg;
}

/// Attaches a seeded fault plan + tight retry policy to roughly half the
/// tenants (always tenant 0), so degraded and healthy tenants coexist.
ForestConfig faulted_forest(std::uint64_t seed) {
  ForestConfig cfg = random_forest(seed);
  Rng rng(seed ^ 0xF0BE57u);
  for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
    if (i != 0 && !rng.chance(1, 2)) continue;
    TenantConfig& t = cfg.tenants[i];
    fault::RandomOptions fopts;
    fopts.seed = rng();
    fopts.modules = t.mapping->num_modules();
    fopts.fail_fraction = 0.25;
    fopts.fail_window = 64;
    fopts.slowdown_count = 2;
    fopts.slowdown_window = 256;
    fopts.slowdown_max_length = 128;
    fopts.slowdown_max_period = 4;
    t.faults = std::make_unique<fault::FaultPlan>(fault::random_plan(fopts));
    t.options.retry.max_retries = static_cast<std::uint32_t>(rng.between(1, 3));
    t.options.retry.attempt_timeout_cycles = rng.between(2, 12);
    t.options.retry.backoff_base_cycles = rng.between(1, 8);
    t.options.retry.backoff_cap_cycles = 64;
  }
  return cfg;
}

ForestReport run_with_workers(const ForestConfig& cfg, unsigned workers) {
  ForestOptions opts = cfg.options;
  opts.workers = workers;
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

void expect_same_tenant(const TenantReport& got, const TenantReport& want) {
  expect_same_responses(got.responses, want.responses);
  expect_same_batches(got.batches, want.batches);
  ASSERT_EQ(got.served_nodes, want.served_nodes);
}

void expect_same_report(const ForestReport& got, const ForestReport& want) {
  ASSERT_EQ(got.tenants.size(), want.tenants.size());
  for (std::size_t i = 0; i < got.tenants.size(); ++i) {
    SCOPED_TRACE("tenant=" + std::to_string(i));
    expect_same_tenant(got.tenants[i], want.tenants[i]);
  }
  ASSERT_EQ(got.ticks, want.ticks);
  ASSERT_EQ(got.rounds, want.rounds);
  ASSERT_EQ(got.final_cycle, want.final_cycle);
  // The whole report — rollup metrics, per-lane trajectories, response
  // tables — serializes identically.
  ASSERT_EQ(got.to_json().dump(), want.to_json().dump());
}

/// Every tenant's kOk responses complete with their batches' lane records.
void expect_tenants_match_lanes(const ForestReport& report) {
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    SCOPED_TRACE("tenant=" + std::to_string(i));
    ASSERT_NO_FATAL_FAILURE(expect_responses_match_lanes(
        report.tenants[i].responses, report.tenants[i].lanes));
  }
}

void expect_all_terminal(const ForestReport& report, const ForestConfig& cfg) {
  ASSERT_EQ(report.total_requests(), cfg.total_requests());
  ASSERT_EQ(report.count(RequestStatus::kOk) +
                report.count(RequestStatus::kShed) +
                report.count(RequestStatus::kExpired),
            cfg.total_requests());
}

TEST(ServeForest, WorkerCountNeverChangesResults) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ForestConfig cfg = random_forest(seed * 7919);
    const ForestReport oracle = run_with_workers(cfg, 1);
    expect_all_terminal(oracle, cfg);
    for (const unsigned workers : {2u, 8u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      expect_same_report(run_with_workers(cfg, workers), oracle);
    }
  }
}

TEST(ServeForest, FaultedTenantsAreWorkerCountInvariant) {
  // Degraded multi-tenant mode is held to the same bar: per-tenant fault
  // plans + retry policies must still be bit-identical at 1/2/8 workers.
  std::uint64_t total_retries = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ForestConfig cfg = faulted_forest(seed * 15485863);
    const ForestReport oracle = run_with_workers(cfg, 1);
    expect_all_terminal(oracle, cfg);
    expect_tenants_match_lanes(oracle);
    for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
      for (const Response& r : oracle.tenants[i].responses) {
        ASSERT_LE(r.retries, cfg.tenants[i].options.retry.max_retries);
        total_retries += r.retries;
      }
    }
    for (const unsigned workers : {2u, 8u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      expect_same_report(run_with_workers(cfg, workers), oracle);
    }
  }
  // The policies are tight enough that retries actually fired somewhere.
  EXPECT_GT(total_retries, 0u);
}

TEST(ServeForest, ReplicaShardingIsWorkerCountInvariant) {
  // The worker-count contract holds with and without a sharded replica
  // pool: the same tenant set served by 1 lane per tenant and by a wide
  // apportioned pool each stay bit-identical across worker counts.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    for (const std::uint32_t replicas : {1u, 24u}) {
      SCOPED_TRACE("replicas=" + std::to_string(replicas));
      ForestConfig cfg = random_forest(seed * 104729);
      cfg.options.replicas = replicas;
      const ForestReport oracle = run_with_workers(cfg, 1);
      expect_all_terminal(oracle, cfg);
      for (const unsigned workers : {2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expect_same_report(run_with_workers(cfg, workers), oracle);
      }
    }
  }
}

TEST(ServeForest, ConcurrentSubmissionMatchesSequential) {
  for (const std::uint64_t seed : {3u, 11u, 17u, 23u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ForestConfig cfg = random_forest(seed * 2654435761u);
    const ForestReport sequential = run_with_workers(cfg, 1);

    ForestOptions opts = cfg.options;
    opts.workers = 8;
    Forest forest(opts);
    for (const TenantConfig& t : cfg.tenants) {
      forest.add_tenant(*t.mapping, t.options);
    }
    // One submitter thread per stripe of tenants, interleaving
    // arbitrarily; the canonical (submit, tenant, client, seq) order
    // makes the outcome a function of the submitted set alone.
    std::vector<std::thread> submitters;
    for (unsigned s = 0; s < 4; ++s) {
      submitters.emplace_back([&, s] {
        for (std::size_t i = s; i < cfg.tenants.size(); i += 4) {
          for (const Request& r : cfg.tenants[i].requests) {
            forest.submit(static_cast<std::uint32_t>(i), r);
          }
        }
      });
    }
    for (auto& th : submitters) th.join();
    expect_same_report(forest.run(), sequential);
  }
}

TEST(ServeForest, PerTenantFaultPlansDegradeOnlyThatTenant) {
  // The isolation headline: killing modules under ONE tenant's mapping
  // must leave every other tenant's responses and batches bit-identical
  // to the fully healthy run — fault blast radius is a single tenant.
  std::uint64_t tenant0_diffs = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ForestConfig cfg = random_forest(seed * 6700417);
    const ForestReport healthy = run_with_workers(cfg, 2);

    // Aggressive plan on tenant 0 only: most modules dead from cycle 0.
    fault::RandomOptions fopts;
    fopts.seed = seed;
    fopts.modules = cfg.tenants[0].mapping->num_modules();
    fopts.fail_fraction = 0.75;
    fopts.fail_window = 8;
    fopts.slowdown_count = 3;
    fopts.slowdown_window = 64;
    fopts.slowdown_max_length = 64;
    fopts.slowdown_max_period = 4;
    cfg.tenants[0].faults =
        std::make_unique<fault::FaultPlan>(fault::random_plan(fopts));
    const ForestReport degraded = run_with_workers(cfg, 2);
    expect_tenants_match_lanes(degraded);

    ASSERT_EQ(degraded.tenants.size(), healthy.tenants.size());
    for (std::size_t i = 1; i < healthy.tenants.size(); ++i) {
      SCOPED_TRACE("tenant=" + std::to_string(i));
      expect_same_tenant(degraded.tenants[i], healthy.tenants[i]);
    }
    // Track that the plan actually bit tenant 0 somewhere across seeds —
    // otherwise the isolation check would be vacuous.
    const auto& a = degraded.tenants[0].responses;
    const auto& b = healthy.tenants[0].responses;
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (a[k].completion_cycle != b[k].completion_cycle) ++tenant0_diffs;
    }
  }
  EXPECT_GT(tenant0_diffs, 0u);
}

TEST(ServeForest, EmptyFaultPlansMatchNoPlansExactly) {
  for (const std::uint64_t seed : {5u, 9u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ForestConfig cfg = random_forest(seed * 999983);
    const ForestReport bare = run_with_workers(cfg, 2);
    for (TenantConfig& t : cfg.tenants) {
      t.faults = std::make_unique<fault::FaultPlan>();  // empty plan
    }
    expect_same_report(run_with_workers(cfg, 2), bare);
  }
}

TEST(ServeForest, RepeatedRunsConsumeOnlyNewSubmissions) {
  // run() drains what was submitted since the previous run; a second
  // batch of submissions against the same forest serves independently
  // and deterministically.
  const ForestConfig cfg = random_forest(31 * 7919);
  Forest forest(cfg.options);
  for (const TenantConfig& t : cfg.tenants) {
    forest.add_tenant(*t.mapping, t.options);
  }
  for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
    for (const Request& r : cfg.tenants[i].requests) {
      forest.submit(static_cast<std::uint32_t>(i), r);
    }
  }
  const ForestReport first = forest.run();
  ASSERT_EQ(first.total_requests(), cfg.total_requests());

  Request extra;
  extra.client = 90;
  extra.seq = 0;
  extra.submit_cycle = 3;
  extra.nodes.push_back(v(0, 0));
  forest.submit(0, extra);
  const ForestReport second = forest.run();
  ASSERT_EQ(second.total_requests(), 1u);
  ASSERT_EQ(second.tenants[0].responses.size(), 1u);
  EXPECT_EQ(second.tenants[0].responses[0].status, RequestStatus::kOk);
}

// ---------------------------------------------------------------------------
// Rejected inputs. Each check throws in every build type and leaves the
// forest serving as if the rejected call had never happened.

TEST(ServeForest, UnknownTenantThrowsAndTheRunServesTheRest) {
  const CompleteBinaryTree tree(6);
  const ColorMapping mapping(tree, 4, 2);
  const auto requests = [] {
    std::vector<Request> out;
    for (std::uint64_t k = 0; k < 24; ++k) {
      Request r;
      r.client = static_cast<std::uint32_t>(k % 3);
      r.seq = k;
      r.submit_cycle = k;
      r.nodes = {v(k % 8, 3), v(k % 4, 2)};
      out.push_back(std::move(r));
    }
    return out;
  }();
  const auto serve = [&](bool with_unknown) {
    Forest forest;
    (void)forest.add_tenant(mapping);
    (void)forest.add_tenant(mapping);
    for (std::size_t k = 0; k < requests.size(); ++k) {
      forest.submit(static_cast<std::uint32_t>(k % 2), requests[k]);
      if (with_unknown && k == 5) {
        EXPECT_THROW(forest.submit(5, requests[k]), std::out_of_range);
        EXPECT_THROW(forest.submit(2, std::vector<Request>{requests[k]}),
                     std::out_of_range);
      }
    }
    return forest.run();
  };
  const ForestReport want = serve(false);
  const ForestReport got = serve(true);
  ASSERT_EQ(got.total_requests(), requests.size());
  EXPECT_EQ(got.count(RequestStatus::kOk), requests.size());
  EXPECT_EQ(got.to_json().dump(), want.to_json().dump());
}

// A request naming a node outside its tenant's tree is refused at submit,
// before anything is queued: the check is per tenant, so a node of the
// deeper tenant's tree is refused for the shallower one.

TEST(ServeForest, SubmitRejectsNodesOutsideTheTenantsTree) {
  const ColorMapping deep(
      make_optimal_color_mapping(CompleteBinaryTree(8), 15));
  const ColorMapping shallow(
      make_optimal_color_mapping(CompleteBinaryTree(5), 7));
  const auto request_of = [](std::uint64_t seq, std::vector<Node> nodes) {
    Request r;
    r.client = 1;
    r.seq = seq;
    r.submit_cycle = seq;
    r.nodes = std::move(nodes);
    return r;
  };
  Forest forest;
  ASSERT_EQ(forest.add_tenant(deep), 0u);
  ASSERT_EQ(forest.add_tenant(shallow), 1u);
  const Node deep_only = v(3, 6);
  ASSERT_THROW(forest.submit(1, request_of(0, {v(0, 0), deep_only})),
               std::out_of_range);
  ASSERT_THROW(forest.submit(0, request_of(0, {Node{3, 40}})),
               std::out_of_range);
  ASSERT_THROW(forest.submit(0, std::vector<Request>{
                                    request_of(0, {deep_only}),
                                    request_of(1, {Node{8, 0}})}),
               std::out_of_range);
  ASSERT_THROW(forest.submit(1, std::vector<Request>{
                                    request_of(0, {v(1, 1)}),
                                    request_of(1, {deep_only})}),
               std::out_of_range);
  EXPECT_EQ(forest.run().total_requests(), 0u);

  forest.submit(0, request_of(0, {deep_only}));
  forest.submit(1, std::vector<Request>{request_of(0, {v(15, 4)})});
  const ForestReport report = forest.run();
  ASSERT_EQ(report.total_requests(), 2u);
  EXPECT_EQ(report.count(RequestStatus::kOk), 2u);
}

/// Request `seq` of client 1 at `submit` for the clock-horizon tests: ids
/// 0 and 2, both on module 0 of a two-module modulo mapping.
Request forest_at_cycle(std::uint64_t seq, std::uint64_t submit) {
  Request r;
  r.client = 1;
  r.seq = seq;
  r.submit_cycle = submit;
  r.nodes = {v(0, 0), v(1, 1)};
  return r;
}

TEST(ServeForest, SubmitRejectsCyclesPastTheClockHorizon) {
  // The Server's wrap, per tenant: UINT64_MAX - 1 or - 2 hang run(), - 3
  // or - 16 wrap the tick clock. Never runs, so a queued one cannot hang.
  const ColorMapping mapping(
      make_optimal_color_mapping(CompleteBinaryTree(8), 15));
  ForestOptions fopts;
  fopts.tick_cycles = 4;
  Forest forest(fopts);
  forest.add_tenant(mapping);
  forest.add_tenant(mapping);
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (const std::uint64_t cycle :
       {kMax, kMax - 1, kMax - 2, kMax - 3, kMax - 16, kClockHorizon + 1}) {
    EXPECT_THROW(forest.submit(1, forest_at_cycle(0, cycle)), std::out_of_range)
        << cycle;
  }
  EXPECT_THROW(forest.submit(0, std::vector<Request>{
                                    forest_at_cycle(0, 0),
                                    forest_at_cycle(1, kMax - 1)}),
               std::out_of_range);
}

TEST(ServeForest, RequestAtTheClockHorizonCompletes) {
  const ModuloMapping mapping(CompleteBinaryTree(8), 2);
  ForestOptions fopts;
  fopts.tick_cycles = 3;  // 2^62 = 1 mod 3: the first tick past it counts
  Forest forest(fopts);
  TenantOptions retried;
  retried.retry.max_retries = 1;
  retried.retry.attempt_timeout_cycles = 1;
  forest.add_tenant(mapping, retried);
  forest.add_tenant(mapping);
  EXPECT_THROW(forest.submit(0, std::vector<Request>{
                                    forest_at_cycle(0, kClockHorizon),
                                    forest_at_cycle(1, kClockHorizon + 1)}),
               std::out_of_range);
  EXPECT_EQ(forest.run().total_requests(), 0u);

  forest.submit(0, std::vector<Request>{forest_at_cycle(0, 0),
                                        forest_at_cycle(1, kClockHorizon)});
  forest.submit(1, forest_at_cycle(0, kClockHorizon));
  const ForestReport report = forest.run();
  ASSERT_EQ(report.total_requests(), 3u);
  EXPECT_EQ(report.tenants[0].responses[0].retries, 1u);
  for (const Response& last :
       {report.tenants[0].responses[1], report.tenants[1].responses[0]}) {
    EXPECT_EQ(last.status, RequestStatus::kOk);
    EXPECT_EQ(last.retries, 0u);
    EXPECT_EQ(last.submit_cycle, kClockHorizon);
    EXPECT_GE(last.admitted_cycle, last.submit_cycle);
    EXPECT_GE(last.dispatch_cycle, last.admitted_cycle);
    EXPECT_GT(last.completion_cycle, last.dispatch_cycle);
    EXPECT_GE(report.final_cycle, last.completion_cycle);
  }
}

TEST(ServeForest, RejectsTicksAndWaitsPastTheClockHorizon) {
  // The Server's wraps: the Forest constructor refuses the tick, and
  // add_tenant the tenant's wait, leaving the forest without it.
  const ColorMapping mapping(
      make_optimal_color_mapping(CompleteBinaryTree(8), 15));
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (const std::uint64_t past :
       {kClockHorizon + 1, (std::uint64_t{1} << 63) + 1, kMax}) {
    ForestOptions tick;
    tick.tick_cycles = past;
    EXPECT_THROW(Forest{tick}, std::invalid_argument) << past;
    Forest forest;
    TenantOptions wait;
    wait.batch.max_wait_cycles = past;
    EXPECT_THROW((void)forest.add_tenant(mapping, wait), std::invalid_argument)
        << past;
    EXPECT_EQ(forest.tenant_count(), 0u);
  }
}

TEST(ServeForest, TickAndWaitAtTheClockHorizonServeARequestThere) {
  const ModuloMapping mapping(CompleteBinaryTree(8), 2);
  ForestOptions fopts;
  fopts.tick_cycles = kClockHorizon;
  Forest forest(fopts);
  EXPECT_EQ(forest.options().tick_cycles, kClockHorizon);
  TenantOptions waiting;
  waiting.batch.max_wait_cycles = kClockHorizon;
  forest.add_tenant(mapping, waiting);
  forest.add_tenant(mapping);
  forest.submit(0, std::vector<Request>{forest_at_cycle(0, 1),
                                        forest_at_cycle(1, kClockHorizon)});
  forest.submit(1, forest_at_cycle(0, kClockHorizon));
  const ForestReport report = forest.run();
  ASSERT_EQ(report.total_requests(), 3u);
  for (const TenantReport& t : report.tenants) {
    for (const Response& r : t.responses) {
      EXPECT_EQ(r.status, RequestStatus::kOk);
      EXPECT_LE(r.submit_cycle, r.admitted_cycle);
      EXPECT_LE(r.admitted_cycle, r.dispatch_cycle);
      EXPECT_LT(r.dispatch_cycle, r.completion_cycle);
      EXPECT_GE(report.final_cycle, r.completion_cycle);
    }
  }
  // The waiting tenant cuts a full budget after the first tick, 2^62; the
  // other tenant's default wait cuts at the next tick.
  EXPECT_EQ(report.tenants[0].responses[1].dispatch_cycle, 2 * kClockHorizon);
  EXPECT_EQ(report.tenants[1].responses[0].dispatch_cycle, 2 * kClockHorizon);
}

TEST(ServeForest, TicksPastTheLastTickThrowOverflow) {
  // The Server's probe on the forest's shared clock: a request at 2^62 is
  // cut at tick 2^64 - 4, which wrapped the next tick (two modules, a
  // blocked second request) or completed an 8-node access three cycles
  // after its dispatch (one module). run() throws std::overflow_error.
  const CompleteBinaryTree tree(8);
  for (const std::uint32_t modules : {2u, 1u}) {
    const ModuloMapping mapping(tree, modules);
    for (const auto& [workers, pipeline] :
         {std::pair{1u, 0u}, {2u, 0u}, {8u, 0u}, {1u, 2u}, {1u, 8u}}) {
      SCOPED_TRACE(::testing::Message() << modules << " modules, workers "
                                        << workers << ", pipeline "
                                        << pipeline);
      ForestOptions fopts;
      fopts.tick_cycles = kClockHorizon - 1;
      fopts.workers = workers;
      fopts.pipeline.workers = pipeline;
      Forest forest(fopts);
      TenantOptions topts;
      topts.batch.max_wait_cycles = kClockHorizon;
      topts.admission.queue_bound = 1;
      topts.admission.overflow = OverflowPolicy::kBlock;
      forest.add_tenant(mapping, topts);
      if (modules == 2) {
        Request second = forest_at_cycle(1, kClockHorizon);
        second.nodes = {v(0, 0)};
        forest.submit(0, std::vector<Request>{
                             forest_at_cycle(0, kClockHorizon), second});
      } else {
        Request only = forest_at_cycle(0, kClockHorizon);
        only.nodes = {v(0, 0), v(0, 1), v(1, 1), v(0, 2),
                      v(1, 2), v(2, 2), v(3, 2), v(0, 3)};
        forest.submit(0, only);
      }
      EXPECT_THROW((void)forest.run(), std::overflow_error);
    }
  }
}

TEST(ServeForest, AddTenantAfterPlanningThrows) {
  const CompleteBinaryTree tree(6);
  const ColorMapping mapping(tree, 4, 2);
  Request r;
  r.nodes = {v(0, 0), v(3, 2)};

  // After run(): the tenant is refused, and the next run serves the
  // registered tenants on the plan the first run fixed.
  Forest ran;
  (void)ran.add_tenant(mapping);
  (void)ran.add_tenant(mapping);
  ran.submit(1, r);
  ASSERT_EQ(ran.run().count(RequestStatus::kOk), 1u);
  EXPECT_THROW((void)ran.add_tenant(mapping), std::logic_error);
  EXPECT_EQ(ran.tenant_count(), 2u);
  ran.submit(0, r);
  ran.submit(1, r);
  const ForestReport second = ran.run();
  ASSERT_EQ(second.tenants.size(), 2u);
  EXPECT_EQ(second.count(RequestStatus::kOk), 2u);
  EXPECT_EQ(second.plan.lanes.size(), 2u);

  // After plan(): the same.
  Forest planned;
  (void)planned.add_tenant(mapping);
  (void)planned.plan();
  EXPECT_THROW((void)planned.add_tenant(mapping), std::logic_error);
  EXPECT_EQ(planned.tenant_count(), 1u);
}

TEST(ServeForest, TenantOptionsRejectsUnknownId) {
  const CompleteBinaryTree tree(6);
  const ColorMapping mapping(tree, 4, 2);
  Forest forest;
  EXPECT_THROW((void)forest.tenant_options(0), std::out_of_range);
  TenantOptions slow;
  slow.weight = 3;
  (void)forest.add_tenant(mapping);
  (void)forest.add_tenant(mapping, slow);
  EXPECT_EQ(forest.tenant_options(1).weight, 3u);
  EXPECT_THROW((void)forest.tenant_options(2), std::out_of_range);
  EXPECT_THROW((void)forest.tenant_options(5), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Server ≡ one-tenant Forest. Both run the same control plane: a Server is
// its one-slot instance without DRR metering or a shared pool, a Forest its
// N-slot instance. With one tenant, no global bound and a DRR quantum at
// least as large as everything that can ever be pending, metering never
// binds, so the two must serve identically.

TEST(ServeForest, ServerEqualsOneTenantForest) {
  std::uint64_t retried = 0;
  std::uint64_t rerouted = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 0x9E3779B97F4A7C15u);
    const std::uint32_t levels = static_cast<std::uint32_t>(rng.between(4, 9));
    const CompleteBinaryTree tree(levels);
    const std::uint32_t modules = static_cast<std::uint32_t>(rng.between(3, 17));
    std::unique_ptr<TreeMapping> mapping;
    if (rng.chance(1, 2)) {
      mapping = std::make_unique<ColorMapping>(
          make_optimal_color_mapping(tree, modules));
    } else {
      mapping = std::make_unique<ModuloMapping>(tree, modules);
    }

    ServerOptions sopts;
    sopts.tick_cycles = rng.between(1, 6);
    sopts.replicas = static_cast<std::uint32_t>(rng.between(1, 4));
    sopts.workers = static_cast<unsigned>(rng.between(1, 3));
    sopts.admission.queue_bound = rng.between(1, 24);
    sopts.admission.overflow =
        rng.chance(1, 2) ? OverflowPolicy::kShed : OverflowPolicy::kBlock;
    sopts.batch.max_batch_nodes = rng.between(2, 40);
    sopts.batch.max_wait_cycles = rng.between(0, 10);
    // Seeds alternate retries on/off, and every other pair adds faults.
    if (seed % 2 == 0) {
      sopts.retry.max_retries = static_cast<std::uint32_t>(rng.between(1, 3));
      sopts.retry.attempt_timeout_cycles = rng.between(2, 8);
      sopts.retry.backoff_base_cycles = rng.between(1, 6);
      sopts.retry.backoff_cap_cycles = 64;
    }
    std::unique_ptr<fault::FaultPlan> faults;
    if (seed % 4 >= 2) {
      fault::RandomOptions fopts;
      fopts.seed = rng();
      fopts.modules = modules;
      fopts.fail_fraction = 0.25;
      fopts.fail_window = 64;
      fopts.slowdown_count = 2;
      fopts.slowdown_window = 256;
      fopts.slowdown_max_length = 128;
      fopts.slowdown_max_period = 4;
      faults = std::make_unique<fault::FaultPlan>(fault::random_plan(fopts));
      sopts.engine.faults = faults.get();
    }

    std::vector<Request> requests;
    std::uint64_t total_nodes = 0;
    const std::size_t count = rng.between(20, 90);
    std::vector<std::uint64_t> next_seq(3, 0);
    std::uint64_t clock = 0;
    for (std::size_t k = 0; k < count; ++k) {
      clock += rng.below(4);
      Request r;
      r.client = static_cast<std::uint32_t>(rng.below(3));
      r.seq = next_seq[r.client]++;
      r.submit_cycle = clock;
      r.deadline_cycles = rng.chance(1, 4) ? rng.between(2, 24) : 0;
      r.nodes = random_payload(rng, levels, rng.chance(1, 2));
      total_nodes += r.nodes.size();
      requests.push_back(std::move(r));
    }

    Server server(*mapping, sopts);
    for (const Request& r : requests) server.submit(r);
    const ServeReport want = server.run();

    ForestOptions fopts;
    fopts.tick_cycles = sopts.tick_cycles;
    fopts.replicas = sopts.replicas;
    fopts.workers = sopts.workers;
    fopts.global_queue_bound = 0;
    fopts.drr_quantum_nodes = total_nodes + 1;
    TenantOptions topts;
    static_cast<SlotOptions&>(topts) = sopts;
    Forest forest(fopts);
    forest.add_tenant(*mapping, topts);
    for (const Request& r : requests) forest.submit(0, r);
    const ForestReport got = forest.run();

    ASSERT_EQ(got.tenants.size(), 1u);
    const TenantReport& t = got.tenants[0];
    ASSERT_EQ(t.responses.size(), want.responses.size());
    for (std::size_t i = 0; i < t.responses.size(); ++i) {
      const Response& a = t.responses[i];
      const Response& b = want.responses[i];
      ASSERT_EQ(a.client, b.client) << i;
      ASSERT_EQ(a.seq, b.seq) << i;
      ASSERT_EQ(a.status, b.status) << i;
      ASSERT_EQ(a.admitted_cycle, b.admitted_cycle) << i;
      ASSERT_EQ(a.dispatch_cycle, b.dispatch_cycle) << i;
      ASSERT_EQ(a.completion_cycle, b.completion_cycle) << i;
      ASSERT_EQ(a.batch, b.batch) << i;
      ASSERT_EQ(a.retries, b.retries) << i;
      retried += a.retries;
    }
    ASSERT_EQ(t.batches.size(), want.batches.size());
    for (std::size_t b = 0; b < t.batches.size(); ++b) {
      ASSERT_EQ(t.batches[b].id, want.batches[b].id) << b;
      ASSERT_EQ(t.batches[b].formed_cycle, want.batches[b].formed_cycle) << b;
      ASSERT_EQ(t.batches[b].members, want.batches[b].members) << b;
      ASSERT_EQ(t.batches[b].nodes, want.batches[b].nodes) << b;
    }
    ASSERT_EQ(t.lanes.size(), want.replicas.size());
    for (std::size_t l = 0; l < t.lanes.size(); ++l) {
      ASSERT_EQ(t.lanes[l].to_json().dump(), want.replicas[l].to_json().dump())
          << "lane " << l;
      rerouted += t.lanes[l].rerouted_requests;
    }
    ASSERT_EQ(got.ticks, want.ticks);
    ASSERT_EQ(got.rounds, want.rounds);
    ASSERT_EQ(got.final_cycle, want.final_cycle);
  }
  // Both the retry and the fault paths were exercised.
  EXPECT_GT(retried, 0u);
  EXPECT_GT(rerouted, 0u);
}

}  // namespace
}  // namespace pmtree::serve
