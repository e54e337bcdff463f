// Real-memory backend through the serve layer (DESIGN.md §17): the
// headline differential — responses are bit-identical with the backend on
// or off, at 1/2/8 workers and at 1/2/8 pipeline workers — plus the
// TouchStats aggregation contract (touches at every thread count equal a
// recount over the report's own batches), faulted runs, per-tenant scope
// in the Forest, and backends that do not cover the served tree rejected
// at construction.
#include "pmtree/mem/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/util/rng.hpp"
#include "fault_plans.hpp"
#include "serve_compare.hpp"

namespace pmtree::serve {
namespace {

std::vector<Request> request_stream(std::uint32_t levels, std::size_t count,
                                    std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t bottom = levels - 1;
  std::vector<Request> requests;
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> next_seq(8, 0);
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(3);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(8));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    if (rng.below(10) < 8) {
      const std::uint64_t span = pow2(bottom) / 8;
      const std::uint64_t start = rng.below(span);
      for (std::uint64_t k = 0; k < 3; ++k) {
        r.nodes.push_back(v((start + k) % span, bottom));
      }
    } else {
      for (int k = 0; k < 2; ++k) {
        const std::uint32_t level =
            static_cast<std::uint32_t>(rng.below(levels));
        r.nodes.push_back(v(rng.below(pow2(level)), level));
      }
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

ServerOptions serve_options() {
  ServerOptions opts;
  opts.tick_cycles = 2;
  opts.replicas = 3;
  opts.workers = 1;
  opts.admission.queue_bound = 48;
  opts.admission.overflow = OverflowPolicy::kShed;
  opts.batch.max_batch_nodes = 24;
  opts.batch.max_wait_cycles = 4;
  opts.retry.max_retries = 2;
  opts.retry.attempt_timeout_cycles = 48;
  opts.retry.backoff_base_cycles = 8;
  opts.retry.backoff_cap_cycles = 64;
  return opts;
}

ServeReport run_once(const TreeMapping& mapping, const ServerOptions& opts,
                     const std::vector<Request>& requests) {
  Server server(mapping, opts);
  for (const Request& r : requests) server.submit(r);
  return server.run();
}

mem::TouchStats recount_over_batches(const mem::MemoryBackend& memory,
                                     const std::vector<FormedBatch>& batches) {
  mem::TouchStats total;
  for (const FormedBatch& b : batches) total += memory.touch(b.nodes);
  return total;
}

// ---------------------------------------------------------------------------
// Server.

TEST(ServeMem, BackendOnOrOffIsBitIdenticalAcrossWorkerCounts) {
  const CompleteBinaryTree tree(9);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 13));
  const mem::MemoryBackend memory(mapping);
  const auto requests = request_stream(tree.levels(), 240, 0x3E25);

  ServerOptions off = serve_options();
  const ServeReport want = run_once(mapping, off, requests);
  EXPECT_EQ(want.memory.nodes, 0u);
  EXPECT_EQ(want.metrics.find("memory"), nullptr);

  for (const unsigned workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServerOptions on = serve_options();
    on.workers = workers;
    on.memory = &memory;
    const ServeReport got = run_once(mapping, on, requests);
    expect_same_responses(got.responses, want.responses);
    // The "memory" section is there exactly when the backend is on.
    expect_same_metrics_but(got.metrics, want.metrics, "memory");
    ASSERT_EQ(got.batches.size(), want.batches.size());
    ASSERT_EQ(got.final_cycle, want.final_cycle);

    // The touched totals equal a recount over the report's own batches.
    EXPECT_GT(got.memory.nodes, 0u);
    EXPECT_EQ(got.memory, recount_over_batches(memory, got.batches));
    const Json* jm = got.metrics.find("memory");
    ASSERT_NE(jm, nullptr);
    EXPECT_EQ(jm->find("touched")->find("nodes")->as_uint(),
              got.memory.nodes);
  }
}

TEST(ServeMem, PipelineTouchesOnWorkersYetMatchesTheOracleTotals) {
  const CompleteBinaryTree tree(9);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 13));
  const mem::MemoryBackend memory(mapping);
  const auto requests = request_stream(tree.levels(), 240, 0x9125);

  ServerOptions oracle_opts = serve_options();
  oracle_opts.memory = &memory;
  const ServeReport oracle = run_once(mapping, oracle_opts, requests);

  ServerOptions off = serve_options();
  const ServeReport plain = run_once(mapping, off, requests);

  for (const unsigned workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("pipeline_workers=" + std::to_string(workers));
    ServerOptions piped_opts = serve_options();
    piped_opts.memory = &memory;
    piped_opts.pipeline.workers = workers;
    const ServeReport piped = run_once(mapping, piped_opts, requests);
    // Identical to the accounting oracle AND to the no-backend run: the
    // backend is observation, wherever the touches execute.
    expect_same_responses(piped.responses, oracle.responses);
    expect_same_responses(piped.responses, plain.responses);
    ASSERT_EQ(piped.memory, oracle.memory)
        << "worker-side touches must aggregate to the control-plane total";
    expect_same_metrics_but(piped.metrics, oracle.metrics, "pipeline");
    expect_same_metrics_but(oracle.metrics, plain.metrics, "memory");
    ASSERT_EQ(piped.metrics.find("memory")->dump(),
              oracle.metrics.find("memory")->dump());
  }
}

TEST(ServeMem, FaultedRunsKeepTheBackendObservational) {
  const CompleteBinaryTree tree(8);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 11));
  const mem::MemoryBackend memory(mapping);
  const auto requests = request_stream(tree.levels(), 160, 0xFA25);

  fault::RandomOptions fopts;
  fopts.seed = 0xFA25;
  fopts.modules = mapping.num_modules();
  fopts.fail_fraction = 0.2;
  fopts.fail_window = 64;
  fopts.slowdown_count = 2;
  fopts.slowdown_window = 128;
  fopts.slowdown_max_length = 64;
  fopts.slowdown_max_period = 4;
  const fault::FaultPlan plan = fault::random_plan(fopts);

  ServerOptions off = serve_options();
  off.engine.faults = &plan;
  ServerOptions on = off;
  on.memory = &memory;

  const ServeReport want = run_once(mapping, off, requests);
  const ServeReport got = run_once(mapping, on, requests);
  expect_same_responses(got.responses, want.responses);
  EXPECT_EQ(got.memory, recount_over_batches(memory, got.batches));
}

TEST(ServeMem, AdaptiveSelectionIsUnperturbedByTheBackend) {
  // The differential anchor with the tentpole's two halves combined: the
  // selector's decisions are simulated quantities, so wiring real memory
  // underneath cannot change an epoch choice or a response.
  const CompleteBinaryTree tree(9);
  const ColorMapping color(make_optimal_color_mapping(tree, 7));
  const LabelTreeMapping label(tree, 7);
  const mem::MemoryBackend memory(label);
  const auto requests = request_stream(tree.levels(), 240, 0xADA5);

  ServerOptions off = serve_options();
  off.adaptive.epoch_batches = 4;
  off.adaptive.candidates = {&color, &label};
  ServerOptions on = off;
  on.memory = &memory;

  const ServeReport want = run_once(label, off, requests);
  ASSERT_NE(want.metrics.find("adaptive"), nullptr);

  for (const unsigned pipeline_workers : {0u, 2u}) {
    SCOPED_TRACE("pipeline_workers=" + std::to_string(pipeline_workers));
    ServerOptions opts = on;
    opts.pipeline.workers = pipeline_workers;
    const ServeReport got = run_once(label, opts, requests);
    expect_same_responses(got.responses, want.responses);
    ASSERT_EQ(got.metrics.find("adaptive")->dump(),
              want.metrics.find("adaptive")->dump());
  }
}

// ---------------------------------------------------------------------------
// Forest: per-tenant backends.

TEST(ServeMem, ForestScopesBackendsPerTenant) {
  const CompleteBinaryTree a_tree(9);
  const ColorMapping a_mapping(make_optimal_color_mapping(a_tree, 13));
  const CompleteBinaryTree b_tree(7);
  const ModuloMapping b_mapping(b_tree, 7);
  const mem::MemoryBackend a_memory(a_mapping);

  const auto a_requests = request_stream(a_tree.levels(), 180, 0xE2A);
  const auto b_requests = request_stream(b_tree.levels(), 60, 0xE2B);

  auto run_forest = [&](bool with_memory, unsigned workers,
                        unsigned pipeline_workers) {
    ForestOptions fopts;
    fopts.tick_cycles = 2;
    fopts.replicas = 4;
    fopts.workers = workers;
    fopts.drr_quantum_nodes = 24;
    fopts.pipeline.workers = pipeline_workers;
    Forest forest(fopts);

    TenantOptions ta;
    ta.rate = 3.0;
    ta.admission.queue_bound = 32;
    ta.batch.max_batch_nodes = 24;
    ta.batch.max_wait_cycles = 4;
    if (with_memory) ta.memory = &a_memory;
    forest.add_tenant(a_mapping, std::move(ta));

    TenantOptions tb;  // no backend
    tb.admission.queue_bound = 16;
    tb.batch.max_batch_nodes = 16;
    forest.add_tenant(b_mapping, std::move(tb));

    for (const Request& r : a_requests) forest.submit(0, r);
    for (const Request& r : b_requests) forest.submit(1, r);
    return forest.run();
  };

  const ForestReport want = run_forest(false, 1, 0);
  const ForestReport with = run_forest(true, 1, 0);

  // Tenant 0 has totals that recount over its batches; tenant 1 stays
  // all-zero and exports no memory section.
  EXPECT_GT(with.tenants[0].memory.nodes, 0u);
  EXPECT_EQ(with.tenants[0].memory,
            recount_over_batches(a_memory, with.tenants[0].batches));
  ASSERT_NE(with.tenants[0].metrics.find("memory"), nullptr);
  EXPECT_EQ(with.tenants[1].memory.nodes, 0u);
  EXPECT_EQ(with.tenants[1].metrics.find("memory"), nullptr)
      << "the backend leaked across the tenant boundary";

  // Responses identical tenant for tenant with the backend on or off, at
  // any worker count, pipeline workers included.
  struct Dims {
    unsigned workers;
    unsigned pipeline_workers;
  };
  for (const Dims d : {Dims{1, 0}, Dims{2, 0}, Dims{8, 0}, Dims{1, 1},
                       Dims{1, 2}}) {
    SCOPED_TRACE("workers=" + std::to_string(d.workers) + " pipeline=" +
                 std::to_string(d.pipeline_workers));
    const ForestReport got = run_forest(true, d.workers, d.pipeline_workers);
    ASSERT_EQ(got.tenants.size(), want.tenants.size());
    for (std::size_t i = 0; i < got.tenants.size(); ++i) {
      ASSERT_EQ(got.tenants[i].responses.size(),
                want.tenants[i].responses.size());
      for (std::size_t k = 0; k < got.tenants[i].responses.size(); ++k) {
        const Response& x = got.tenants[i].responses[k];
        const Response& y = want.tenants[i].responses[k];
        ASSERT_EQ(x.status, y.status) << i << ":" << k;
        ASSERT_EQ(x.completion_cycle, y.completion_cycle) << i << ":" << k;
        ASSERT_EQ(x.batch, y.batch) << i << ":" << k;
        ASSERT_EQ(x.retries, y.retries) << i << ":" << k;
      }
    }
    EXPECT_EQ(got.tenants[0].memory, with.tenants[0].memory)
        << "per-tenant totals must be invariant to execution shape";
  }
}

// ---------------------------------------------------------------------------
// A backend must cover the served tree: one over fewer levels than the
// slot's mapping has no slot for the deeper nodes, so the first batch
// reaching them would read past its address table. Rejected at
// construction; a backend over the same or a deeper tree is accepted.
// Construction only; nothing runs.

TEST(ServeMem, ServerRejectsArenaOverAShallowerTree) {
  const CompleteBinaryTree tree(8);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 7));
  const ModuloMapping shallower(CompleteBinaryTree(7), 7);
  const ModuloMapping deeper(CompleteBinaryTree(9), 3);
  const mem::MemoryBackend short_arena(shallower);
  const mem::MemoryBackend same_arena(mapping);
  const mem::MemoryBackend deep_arena(deeper);

  ServerOptions opts = serve_options();
  opts.memory = &short_arena;
  EXPECT_THROW(Server(mapping, opts), std::invalid_argument);
  opts.memory = &same_arena;
  EXPECT_NO_THROW(Server(mapping, opts));
  opts.memory = &deep_arena;
  EXPECT_NO_THROW(Server(mapping, opts));
}

TEST(ServeMem, ForestRejectsArenaOverAShallowerTree) {
  const CompleteBinaryTree tree(8);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 7));
  const ModuloMapping shallower(CompleteBinaryTree(7), 7);
  const mem::MemoryBackend short_arena(shallower);
  const mem::MemoryBackend same_arena(mapping);

  TenantOptions opts;
  opts.memory = &short_arena;
  Forest forest;
  EXPECT_THROW((void)forest.add_tenant(mapping, opts), std::invalid_argument);
  EXPECT_EQ(forest.tenant_count(), 0u);
  // The short arena fits a tenant over its own tree.
  EXPECT_EQ(forest.add_tenant(shallower, opts), 0u);
  opts.memory = &same_arena;
  EXPECT_EQ(forest.add_tenant(mapping, opts), 1u);
}

}  // namespace
}  // namespace pmtree::serve
