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
#include <string>
#include <thread>
#include <vector>

#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/util/rng.hpp"

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
    fault::FaultPlan::RandomOptions fopts;
    fopts.seed = rng();
    fopts.modules = t.mapping->num_modules();
    fopts.fail_fraction = 0.25;
    fopts.fail_window = 64;
    fopts.slowdown_count = 2;
    fopts.slowdown_window = 256;
    fopts.slowdown_max_length = 128;
    fopts.slowdown_max_period = 4;
    t.faults = std::make_unique<fault::FaultPlan>(fault::FaultPlan::random(fopts));
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
  ASSERT_EQ(got.responses.size(), want.responses.size());
  for (std::size_t i = 0; i < got.responses.size(); ++i) {
    const Response& a = got.responses[i];
    const Response& b = want.responses[i];
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
  ASSERT_EQ(got.batches.size(), want.batches.size());
  for (std::size_t b = 0; b < got.batches.size(); ++b) {
    ASSERT_EQ(got.batches[b].members, want.batches[b].members) << b;
    ASSERT_EQ(got.batches[b].nodes, want.batches[b].nodes) << b;
    ASSERT_EQ(got.batches[b].formed_cycle, want.batches[b].formed_cycle) << b;
  }
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
    fault::FaultPlan::RandomOptions fopts;
    fopts.seed = seed;
    fopts.modules = cfg.tenants[0].mapping->num_modules();
    fopts.fail_fraction = 0.75;
    fopts.fail_window = 8;
    fopts.slowdown_count = 3;
    fopts.slowdown_window = 64;
    fopts.slowdown_max_length = 64;
    fopts.slowdown_max_period = 4;
    cfg.tenants[0].faults =
        std::make_unique<fault::FaultPlan>(fault::FaultPlan::random(fopts));
    const ForestReport degraded = run_with_workers(cfg, 2);

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
      fault::FaultPlan::RandomOptions fopts;
      fopts.seed = rng();
      fopts.modules = modules;
      fopts.fail_fraction = 0.25;
      fopts.fail_window = 64;
      fopts.slowdown_count = 2;
      fopts.slowdown_window = 256;
      fopts.slowdown_max_length = 128;
      fopts.slowdown_max_period = 4;
      faults = std::make_unique<fault::FaultPlan>(fault::FaultPlan::random(fopts));
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
    topts.admission = sopts.admission;
    topts.batch = sopts.batch;
    topts.retry = sopts.retry;
    topts.engine = sopts.engine;
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
