// Determinism property tests for the serve front-end (DESIGN.md §11):
// across randomized (mapping, workload, deadline, queue-bound, policy)
// configurations, the multi-threaded server must be bit-identical,
// request-for-request, to the single-threaded oracle — at 1, 2 and 8
// workers — and concurrent submission from many client threads must
// produce exactly the sequential-submission report.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/util/rng.hpp"
#include "fault_plans.hpp"
#include "serve_compare.hpp"

namespace pmtree::serve {
namespace {

struct Config {
  std::unique_ptr<CompleteBinaryTree> tree;
  std::unique_ptr<TreeMapping> mapping;
  ServerOptions options;
  std::vector<Request> requests;
  // Owned here; run_with_workers wires it into the copied options so the
  // pointer survives Config moves (options.engine.faults must never dangle).
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
    const std::size_t nodes = rng.below(6);  // 0..5, empty payloads included
    for (std::size_t k = 0; k < nodes; ++k) {
      const std::uint32_t level =
          static_cast<std::uint32_t>(rng.below(levels));
      r.nodes.push_back(v(rng.below(pow2(level)), level));
    }
    cfg.requests.push_back(std::move(r));
  }
  return cfg;
}

/// Degraded serving on top of a base config: a seeded fault plan for the
/// replica engines plus a retry policy tight enough that fault-inflated
/// residencies actually fire it.
Config faulted_config(std::uint64_t seed) {
  Config cfg = random_config(seed);
  Rng rng(seed ^ 0xFA017u);
  fault::RandomOptions fopts;
  fopts.seed = rng();
  fopts.modules = cfg.mapping->num_modules();
  fopts.fail_fraction = 0.25;
  fopts.fail_window = 64;
  fopts.slowdown_count = 2;
  fopts.slowdown_window = 256;
  fopts.slowdown_max_length = 128;
  fopts.slowdown_max_period = 4;
  cfg.faults =
      std::make_unique<fault::FaultPlan>(fault::random_plan(fopts));
  cfg.options.retry.max_retries = static_cast<std::uint32_t>(rng.between(1, 4));
  cfg.options.retry.attempt_timeout_cycles = rng.between(2, 12);
  cfg.options.retry.backoff_base_cycles = rng.between(1, 8);
  cfg.options.retry.backoff_cap_cycles = 64;
  return cfg;
}

ServeReport run_with_workers(const Config& cfg, unsigned workers) {
  ServerOptions opts = cfg.options;
  opts.workers = workers;
  if (cfg.faults != nullptr) opts.engine.faults = cfg.faults.get();
  Server server(*cfg.mapping, opts);
  for (const Request& r : cfg.requests) server.submit(r);
  return server.run();
}

void expect_same_report(const ServeReport& got, const ServeReport& want) {
  expect_same_responses(got.responses, want.responses);
  ASSERT_EQ(got.rounds, want.rounds);
  expect_same_batches(got.batches, want.batches);
  expect_same_lanes(got.replicas, want.replicas);
  ASSERT_EQ(got.ticks, want.ticks);
  ASSERT_EQ(got.final_cycle, want.final_cycle);
  // The whole report — metrics, per-replica trajectories, response rows —
  // serializes identically.
  ASSERT_EQ(got.to_json().dump(), want.to_json().dump());
}

TEST(ServeDifferential, WorkerCountNeverChangesResults) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Config cfg = random_config(seed * 7919);
    const ServeReport oracle = run_with_workers(cfg, 1);

    // Terminal-status accounting holds on the oracle itself.
    ASSERT_EQ(oracle.count(RequestStatus::kOk) +
                  oracle.count(RequestStatus::kShed) +
                  oracle.count(RequestStatus::kExpired),
              cfg.requests.size());

    for (const unsigned workers : {2u, 8u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      expect_same_report(run_with_workers(cfg, workers), oracle);
    }
  }
}

TEST(ServeDifferential, FaultedRetryingRunsAreWorkerCountInvariant) {
  // Degraded mode is held to the same bar as healthy mode: a seeded fault
  // plan plus an aggressive retry policy must still be bit-identical,
  // request-for-request and round-for-round, at 1/2/8 workers.
  std::uint64_t total_retries = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Config cfg = faulted_config(seed * 15485863);
    const ServeReport oracle = run_with_workers(cfg, 1);

    // Graceful shutdown survives faults: every request terminal.
    ASSERT_EQ(oracle.count(RequestStatus::kOk) +
                  oracle.count(RequestStatus::kShed) +
                  oracle.count(RequestStatus::kExpired),
              cfg.requests.size());
    ASSERT_GE(oracle.rounds, 1u);
    for (const Response& r : oracle.responses) {
      ASSERT_LE(r.retries, cfg.options.retry.max_retries);
      if (r.status == RequestStatus::kOk) {
        ASSERT_GE(r.completion_cycle, r.dispatch_cycle);
      }
      total_retries += r.retries;
    }

    for (const unsigned workers : {2u, 8u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      expect_same_report(run_with_workers(cfg, workers), oracle);
    }
  }
  // The policy is tight enough that retries actually happened somewhere —
  // otherwise this test would be vacuously re-checking the healthy path.
  EXPECT_GT(total_retries, 0u);
}

TEST(ServeDifferential, EmptyFaultPlanMatchesNoPlanExactly) {
  for (std::uint64_t seed : {5u, 9u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Config cfg = random_config(seed * 2654435761u);
    const ServeReport bare = run_with_workers(cfg, 2);
    cfg.faults = std::make_unique<fault::FaultPlan>();  // empty plan
    expect_same_report(run_with_workers(cfg, 2), bare);
  }
}

TEST(ServeDifferential, RetriesRespectDeadlineAndAttemptBudgets) {
  // Retried requests are never served twice and never exceed the policy's
  // attempt budget; expiry (including a retry landing past its deadline)
  // only ever happens to requests that actually carried a deadline.
  const Config cfg = faulted_config(777);
  const ServeReport report = run_with_workers(cfg, 1);
  ASSERT_EQ(report.responses.size(), cfg.requests.size());
  for (const Response& r : report.responses) {
    ASSERT_LE(r.retries, cfg.options.retry.max_retries)
        << "client " << r.client << " seq " << r.seq;
    ASSERT_NE(r.status, RequestStatus::kPending);
    if (r.status == RequestStatus::kOk) {
      ASSERT_GE(r.completion_cycle, r.dispatch_cycle);
      ASSERT_GE(r.dispatch_cycle, r.submit_cycle);
    }
    if (r.status == RequestStatus::kExpired) {
      // Find the original request: expiry requires a deadline.
      bool found = false;
      for (const Request& q : cfg.requests) {
        if (q.client == r.client && q.seq == r.seq) {
          EXPECT_NE(q.deadline_cycles, 0u);
          // Expiry is stamped at the detecting tick: never before the
          // budget elapsed (ticks may detect it a few cycles late).
          EXPECT_GE(r.completion_cycle - r.submit_cycle, q.deadline_cycles);
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found);
    }
  }
}

TEST(ServeDifferential, ConcurrentSubmissionMatchesSequential) {
  for (std::uint64_t seed : {3u, 11u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Config cfg = random_config(seed * 104729);
    const ServeReport sequential = run_with_workers(cfg, 1);

    ServerOptions opts = cfg.options;
    opts.workers = 8;
    Server server(*cfg.mapping, opts);
    // Four submitter threads interleave arbitrarily; the canonical order
    // makes the outcome a function of the submitted set alone.
    std::vector<std::thread> submitters;
    for (unsigned t = 0; t < 4; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t i = t; i < cfg.requests.size(); i += 4) {
          server.submit(cfg.requests[i]);
        }
      });
    }
    for (auto& th : submitters) th.join();
    expect_same_report(server.run(), sequential);
  }
}

}  // namespace
}  // namespace pmtree::serve
