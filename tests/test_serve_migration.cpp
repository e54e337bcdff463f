// Skew-adaptive migration tests (DESIGN.md §15): the HeatTracker's integer
// decay semantics, the MigrationPlanner's determinism and peak-reduction
// contract, and — the headline rule — that epoch remapping is a pure
// control-plane decision: migrated serving is bit-identical at 1/2/8
// workers and at pipeline workers, a disabled policy leaves the
// server byte-identical to the static-mapping build, and migration under
// a non-empty fault plan is rejected at construction.
#include "pmtree/serve/migration.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/util/rng.hpp"
#include "serve_compare.hpp"

namespace pmtree::serve {
namespace {

// ---------------------------------------------------------------------------
// HeatTracker.

TEST(HeatTracker, RoutesHeatBySubtreeBelowTheLevelAndFixedAbove) {
  HeatTracker heat(2, 5);
  ASSERT_EQ(heat.subtree_count(), 4u);
  ASSERT_EQ(heat.modules(), 5u);

  // Two nodes in subtree 2 (level >= 2), one node above the level.
  const std::vector<Node> nodes = {v(2, 2), v(5, 3), v(1, 1)};
  const std::vector<Color> colors = {3, 3, 4};
  heat.observe(nodes, colors);

  EXPECT_EQ(heat.cell(2, 3), 2u);  // v(2,2) sid 2; v(5,3) sid 5>>1 = 2
  EXPECT_EQ(heat.subtree_heat(2), 2u);
  EXPECT_EQ(heat.subtree_heat(0), 0u);
  EXPECT_EQ(heat.fixed_heat(4), 1u);
  EXPECT_EQ(heat.fixed_heat(3), 0u);
  EXPECT_EQ(heat.total(), 3u);
}

TEST(HeatTracker, DecayIsExactIntegerHalvingWithConsistentSums) {
  HeatTracker heat(1, 3);
  std::vector<Node> nodes;
  std::vector<Color> colors;
  // 7 hits on (subtree 0, color 1), 3 on (subtree 1, color 2), 5 fixed
  // on module 0.
  for (int i = 0; i < 7; ++i) { nodes.push_back(v(0, 1)); colors.push_back(1); }
  for (int i = 0; i < 3; ++i) { nodes.push_back(v(1, 1)); colors.push_back(2); }
  for (int i = 0; i < 5; ++i) { nodes.push_back(v(0, 0)); colors.push_back(0); }
  heat.observe(nodes, colors);
  ASSERT_EQ(heat.total(), 15u);

  heat.decay(1);  // h -= h >> 1: 7 -> 4, 3 -> 2, 5 -> 3
  EXPECT_EQ(heat.cell(0, 1), 4u);
  EXPECT_EQ(heat.cell(1, 2), 2u);
  EXPECT_EQ(heat.fixed_heat(0), 3u);
  EXPECT_EQ(heat.subtree_heat(0), 4u);
  EXPECT_EQ(heat.subtree_heat(1), 2u);
  EXPECT_EQ(heat.total(), 9u);

  // Shift >= 64 is a no-op (h >> 64 would be UB if computed naively).
  heat.decay(64);
  EXPECT_EQ(heat.cell(0, 1), 4u);
  EXPECT_EQ(heat.total(), 9u);

  // Shift 0 clears the ledger entirely.
  heat.decay(0);
  EXPECT_EQ(heat.cell(0, 1), 0u);
  EXPECT_EQ(heat.subtree_heat(0), 0u);
  EXPECT_EQ(heat.fixed_heat(0), 0u);
  EXPECT_EQ(heat.total(), 0u);
}

// Each rejected ledger is refused before anything is allocated: 2^64 x 3
// cells (a shift by 64), 2^63 x 2 cells (past size_t) and zero modules.
TEST(HeatTracker, RejectsLedgersThatCannotExist) {
  EXPECT_THROW(HeatTracker(64, 3), std::invalid_argument);
  EXPECT_THROW(HeatTracker(63, 2), std::invalid_argument);
  EXPECT_THROW(HeatTracker(4, 0), std::invalid_argument);
  const HeatTracker heat(4, 3);
  EXPECT_EQ(heat.subtree_count(), 16u);
  EXPECT_EQ(heat.modules(), 3u);
}

TEST(HeatTracker, RejectedBatchLeavesTheLedgerUnchanged) {
  HeatTracker heat(2, 3);
  const std::vector<Node> first = {v(1, 2), v(0, 0)};
  const std::vector<Color> first_colors = {2, 1};
  heat.observe(first, first_colors);
  ASSERT_EQ(heat.total(), 2u);

  // A valid node ahead of the bad one is not folded either.
  const std::vector<Node> nodes = {v(3, 2), v(4, 3)};
  EXPECT_THROW(heat.observe(nodes, std::vector<Color>{0}),
               std::invalid_argument);
  EXPECT_THROW(heat.observe(nodes, std::vector<Color>{0, 3}),
               std::out_of_range);
  const std::vector<Node> past_level = {v(3, 2), Node{3, 8}};
  EXPECT_THROW(heat.observe(past_level, std::vector<Color>{0, 1}),
               std::out_of_range);
  const std::vector<Node> past_root = {Node{0, 1}};
  EXPECT_THROW(heat.observe(past_root, std::vector<Color>{0}),
               std::out_of_range);
  EXPECT_EQ(heat.total(), 2u);
  EXPECT_EQ(heat.subtree_heat(3), 0u);
  EXPECT_EQ(heat.cell(1, 2), 1u);
  EXPECT_EQ(heat.fixed_heat(1), 1u);

  // Below the deepest shift the ledger can take, the subtree id is 0.
  const std::vector<Node> deep = {Node{80, 5}};
  heat.observe(deep, std::vector<Color>{0});
  EXPECT_EQ(heat.cell(0, 0), 1u);
  EXPECT_EQ(heat.total(), 3u);
}

// ---------------------------------------------------------------------------
// MigrationPlanner.

// A deterministic skewed batch stream: every batch hits bottom-level
// nodes of subtrees 0 and 1 that all share one base color — the worst
// case a static mapping can face at this granularity.
std::vector<std::vector<Node>> skewed_batches(const TreeMapping& base,
                                              std::uint32_t subtree_level,
                                              std::size_t batches) {
  const std::uint32_t bottom = base.tree().levels() - 1;
  const Color target = base.color_of(v(0, bottom));
  std::vector<Node> hot;
  for (std::uint64_t i = 0; i < pow2(bottom); ++i) {
    const Node n = v(i, bottom);
    if ((i >> (bottom - subtree_level)) > 1) break;  // subtrees 0 and 1
    if (base.color_of(n) == target) hot.push_back(n);
  }
  std::vector<std::vector<Node>> out(batches);
  Rng rng(0x5EED);
  for (std::size_t b = 0; b < batches; ++b) {
    for (int k = 0; k < 6; ++k) {
      out[b].push_back(hot[rng.below(hot.size())]);
    }
  }
  return out;
}

TEST(MigrationPlanner, StaysOnBaseUntilFirstEpochThenReplaysDeterministically) {
  const CompleteBinaryTree tree(9);
  const ColorMapping base(make_optimal_color_mapping(tree, 13));
  MigrationPolicy policy;
  policy.epoch_batches = 4;
  policy.top_k = 2;
  policy.subtree_level = 3;
  const auto batches = skewed_batches(base, policy.subtree_level, 12);

  MigrationPlanner a(base, policy);
  EXPECT_EQ(&a.current(), static_cast<const TreeMapping*>(&base));
  for (std::size_t b = 0; b < 3; ++b) {
    a.observe(batches[b], b);
    EXPECT_EQ(&a.current(), static_cast<const TreeMapping*>(&base))
        << "planned before the batch budget was reached";
  }
  a.observe(batches[3], 3);
  EXPECT_EQ(a.epochs_planned(), 1u);
  EXPECT_NE(&a.current(), static_cast<const TreeMapping*>(&base));
  for (std::size_t b = 4; b < batches.size(); ++b) a.observe(batches[b], b);
  EXPECT_EQ(a.batches_observed(), batches.size());
  EXPECT_EQ(a.epochs_planned(), batches.size() / policy.epoch_batches);

  // Replay: a second planner fed the identical stream reproduces every
  // event and the final rotation table bit for bit.
  MigrationPlanner b(base, policy);
  for (std::size_t i = 0; i < batches.size(); ++i) b.observe(batches[i], i);
  ASSERT_EQ(b.events().size(), a.events().size());
  for (std::size_t e = 0; e < a.events().size(); ++e) {
    ASSERT_EQ(b.events()[e].to_json().dump(), a.events()[e].to_json().dump())
        << "epoch " << e;
  }
  ASSERT_EQ(b.stats().dump(), a.stats().dump());
  const auto& ma = static_cast<const MigratedMapping&>(a.current());
  const auto& mb = static_cast<const MigratedMapping&>(b.current());
  ASSERT_EQ(mb.rotation_table(), ma.rotation_table());
}

TEST(MigrationPlanner, PlansReducePredictedPeakOnCollidingSubtrees) {
  const CompleteBinaryTree tree(9);
  const ColorMapping base(make_optimal_color_mapping(tree, 13));
  MigrationPolicy policy;
  policy.epoch_batches = 4;
  policy.top_k = 4;
  policy.subtree_level = 3;
  MigrationPlanner planner(base, policy);
  const auto batches = skewed_batches(base, policy.subtree_level, 4);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    planner.observe(batches[b], b * 10);
  }
  ASSERT_EQ(planner.events().size(), 1u);
  const MigrationEvent& e = planner.events()[0];
  EXPECT_EQ(e.epoch, 1u);
  EXPECT_EQ(e.cycle, 30u);
  EXPECT_EQ(e.batches, 4u);
  EXPECT_FALSE(e.moves.empty());
  // Both hot subtrees collide on one base color; rotating either apart
  // must strictly lower the predicted peak.
  EXPECT_LT(e.peak_after, e.peak_before);
  const auto& mapping = static_cast<const MigratedMapping&>(planner.current());
  EXPECT_FALSE(mapping.is_identity());
}

TEST(MigrationPlanner, ConstructorRejectsMisfitPolicies) {
  // The rules the Server constructor and Forest::add_tenant apply, checked
  // by the planner before it sizes its heat ledger. Construction only.
  const CompleteBinaryTree tree(8);
  const ColorMapping base(make_optimal_color_mapping(tree, 13));
  MigrationPolicy good;
  good.epoch_batches = 4;
  good.subtree_level = tree.levels() - 1;
  EXPECT_NO_THROW(MigrationPlanner(base, good));

  MigrationPolicy off = good;
  off.epoch_batches = 0;
  EXPECT_THROW(MigrationPlanner(base, off), std::invalid_argument);
  MigrationPolicy no_moves = good;
  no_moves.top_k = 0;
  EXPECT_THROW(MigrationPlanner(base, no_moves), std::invalid_argument);
  MigrationPolicy past = good;
  past.subtree_level = tree.levels();
  EXPECT_THROW(MigrationPlanner(base, past), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Server end to end.

// A hot-spot request stream: 80% of requests read bottom-level leaves of
// two subtrees (Zipf-ish bias), the rest scatter across the tree.
std::vector<Request> skewed_requests(std::uint32_t levels, std::size_t count,
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
      // Hot: 3 leaves from the first 1/8th of the bottom level.
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

ServerOptions migrated_options() {
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
  opts.migration.epoch_batches = 4;
  opts.migration.top_k = 4;
  opts.migration.subtree_level = 3;
  return opts;
}

ServeReport run_once(const TreeMapping& mapping, const ServerOptions& opts,
                     const std::vector<Request>& requests) {
  Server server(mapping, opts);
  for (const Request& r : requests) server.submit(r);
  return server.run();
}

TEST(ServeMigration, ServerBitIdenticalAcrossWorkerCounts) {
  const CompleteBinaryTree tree(9);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 13));
  const auto requests = skewed_requests(tree.levels(), 240, 0x4EA7);
  const ServerOptions base = migrated_options();

  const ServeReport want = run_once(mapping, base, requests);
  // The planner actually ran: epochs were planned and exported.
  const Json* migration = want.metrics.find("migration");
  ASSERT_NE(migration, nullptr);
  EXPECT_GE(migration->find("epochs_planned")->as_uint(), 1u);
  EXPECT_GE(migration->find("mappings_minted")->as_uint(), 1u);

  for (const unsigned workers : {2u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServerOptions opts = base;
    opts.workers = workers;
    const ServeReport got = run_once(mapping, opts, requests);
    ASSERT_EQ(got.to_json().dump(), want.to_json().dump());
  }
}

TEST(ServeMigration, StagedPipelineMatchesOracleUnderMigration) {
  const CompleteBinaryTree tree(9);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 13));
  const auto requests = skewed_requests(tree.levels(), 240, 0x91BE);
  const ServerOptions base = migrated_options();
  const ServeReport oracle = run_once(mapping, base, requests);

  for (const unsigned workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("pipeline_workers=" + std::to_string(workers));
    ServerOptions opts = base;
    opts.pipeline.workers = workers;
    const ServeReport piped = run_once(mapping, opts, requests);
    ASSERT_EQ(piped.responses.size(), oracle.responses.size());
    for (std::size_t i = 0; i < piped.responses.size(); ++i) {
      ASSERT_EQ(piped.responses[i].status, oracle.responses[i].status) << i;
      ASSERT_EQ(piped.responses[i].completion_cycle,
                oracle.responses[i].completion_cycle)
          << i;
      ASSERT_EQ(piped.responses[i].batch, oracle.responses[i].batch) << i;
      ASSERT_EQ(piped.responses[i].retries, oracle.responses[i].retries) << i;
    }
    ASSERT_EQ(piped.batches.size(), oracle.batches.size());
    ASSERT_EQ(piped.rounds, oracle.rounds);
    ASSERT_EQ(piped.final_cycle, oracle.final_cycle);
    expect_same_metrics_but(piped.metrics, oracle.metrics, "pipeline");
    // The pipelined planner saw the same batch stream: same epoch audit.
    ASSERT_EQ(piped.metrics.find("migration")->dump(),
              oracle.metrics.find("migration")->dump());
  }
}

TEST(ServeMigration, DisabledPolicyIsByteIdenticalToStaticServer) {
  const CompleteBinaryTree tree(9);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 13));
  const auto requests = skewed_requests(tree.levels(), 200, 0xD15AB);

  ServerOptions off = migrated_options();
  off.migration = MigrationPolicy{};  // epoch_batches 0: disabled
  ASSERT_FALSE(off.migration.enabled());
  ServerOptions static_opts = off;

  const ServeReport a = run_once(mapping, off, requests);
  const ServeReport b = run_once(mapping, static_opts, requests);
  ASSERT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_EQ(a.metrics.find("migration"), nullptr);

  // top_k == 0 disables too, whatever the epoch budget says.
  ServerOptions zero_k = migrated_options();
  zero_k.migration.top_k = 0;
  const ServeReport c = run_once(mapping, zero_k, requests);
  ASSERT_EQ(c.to_json().dump(), b.to_json().dump());
}

// ---------------------------------------------------------------------------
// Migration under a non-empty fault plan is rejected at construction: the
// plan's reroute timeline owns the slot's color space, and nothing
// switches the planner off at run time instead. An empty plan is no plan.
// Construction only; nothing runs.

TEST(ServeMigration, ServerRejectsMigrationUnderAFaultPlan) {
  const CompleteBinaryTree tree(8);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 11));
  fault::FaultPlan fail_stop;
  fail_stop.fail_stop(1, 32);
  fault::FaultPlan slowdown;
  slowdown.slow_down(2, 0, 64, 2);
  const fault::FaultPlan empty;

  ServerOptions opts = migrated_options();
  for (const fault::FaultPlan* plan : {&fail_stop, &slowdown}) {
    opts.engine.faults = plan;
    EXPECT_THROW(Server(mapping, opts), std::invalid_argument);
  }
  opts.engine.faults = &empty;
  EXPECT_NO_THROW(Server(mapping, opts));
  // The plan alone is a valid faulted server.
  opts.engine.faults = &fail_stop;
  opts.migration = MigrationPolicy{};
  EXPECT_NO_THROW(Server(mapping, opts));
}

TEST(ServeMigration, ForestRejectsMigrationUnderAFaultPlan) {
  const CompleteBinaryTree tree(8);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 11));
  fault::FaultPlan fail_stop;
  fail_stop.fail_stop(1, 32);
  const fault::FaultPlan empty;

  TenantOptions opts;
  opts.migration = migrated_options().migration;
  opts.engine.faults = &fail_stop;
  Forest forest;
  EXPECT_THROW((void)forest.add_tenant(mapping, opts), std::invalid_argument);
  EXPECT_EQ(forest.tenant_count(), 0u);
  opts.engine.faults = &empty;
  EXPECT_EQ(forest.add_tenant(mapping, opts), 0u);
  // A faulted tenant without migration sits beside it.
  opts.engine.faults = &fail_stop;
  opts.migration = MigrationPolicy{};
  EXPECT_EQ(forest.add_tenant(mapping, opts), 1u);
}

// ---------------------------------------------------------------------------
// Skew taming on the hot-spot Zipf stream: migration must cut the retry
// waves a static mapping pays when every hot leaf lands on one module.

/// Six bottom-level leaves from each of up to eight level-4 subtrees, all
/// wearing the base color of the leftmost leaf: under the static mapping
/// every one of them serializes on the same module, while the planner can
/// rotate each subtree on its own.
std::vector<std::vector<Node>> same_color_hot_leaves(
    const CompleteBinaryTree& tree, const TreeMapping& mapping) {
  const std::uint32_t bottom = tree.levels() - 1;
  const Color target = mapping.color_of(v(0, bottom));
  const std::uint64_t per_subtree = pow2(bottom - 4);
  std::vector<std::vector<Node>> hot;
  for (std::uint64_t sid = 0; sid < 16 && hot.size() < 8; ++sid) {
    std::vector<Node> leaves;
    for (std::uint64_t k = 0; k < per_subtree && leaves.size() < 6; ++k) {
      const Node n = v(sid * per_subtree + k, bottom);
      if (mapping.color_of(n) == target) leaves.push_back(n);
    }
    if (leaves.size() == 6) hot.push_back(std::move(leaves));
  }
  return hot;
}

/// 16 clients at mean gap 2: 80% of requests read three leaves of one hot
/// subtree (subtree s with weight 1/(s+1)), 20% read a root-to-leaf path
/// from a uniform leaf.
std::vector<Request> hot_spot_zipf_requests(
    const CompleteBinaryTree& tree,
    const std::vector<std::vector<Node>>& hot, std::size_t count,
    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> cdf;
  std::uint64_t acc = 0;
  for (std::uint64_t s = 0; s < hot.size(); ++s) {
    acc += 840 / (s + 1);
    cdf.push_back(acc);
  }
  const std::uint32_t bottom = tree.levels() - 1;
  std::vector<std::uint64_t> next_seq(16, 0);
  std::vector<Request> requests;
  std::uint64_t clock = 0;
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(5);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(16));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    if (rng.below(10) < 8) {
      const std::uint64_t draw = rng.below(acc);
      std::size_t s = 0;
      while (cdf[s] <= draw) ++s;
      const std::vector<Node>& leaves = hot[s];
      const std::size_t start = rng.below(leaves.size());
      for (std::size_t k = 0; k < 3; ++k) {
        r.nodes.push_back(leaves[(start + k) % leaves.size()]);
      }
    } else {
      Node n = v(rng.below(pow2(bottom)), bottom);
      r.nodes.push_back(n);
      while (n.level > 0) {
        n = parent(n);
        r.nodes.push_back(n);
      }
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

std::uint64_t total_retries(const ServeReport& report) {
  std::uint64_t total = 0;
  for (const Response& r : report.responses) total += r.retries;
  return total;
}

TEST(ServeMigration, HotSpotZipfRunNeedsFewerRetriesRoundsAndCycles) {
  // Height-11 tree, COLOR with M = 15, 2,000 requests. The hot mass alone
  // oversubscribes one module, so the static run's residencies blow the
  // 64-cycle attempt timeout and its retry waves add serving rounds; the
  // planner rotates the hot subtrees apart within an epoch. Measured:
  // static 5 rounds / 1,664 retries / final cycle 5,196; migrated
  // 1 / 0 / 3,989.
  const CompleteBinaryTree tree(12);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 15));
  const auto hot = same_color_hot_leaves(tree, mapping);
  ASSERT_EQ(hot.size(), 8u);
  const auto requests = hot_spot_zipf_requests(tree, hot, 2000, 0xE23);

  ServerOptions static_opts;
  static_opts.tick_cycles = 4;
  static_opts.admission.queue_bound = 128;
  static_opts.admission.overflow = OverflowPolicy::kShed;
  static_opts.batch.max_batch_nodes = 96;
  static_opts.batch.max_wait_cycles = 8;
  static_opts.retry.max_retries = 4;
  static_opts.retry.attempt_timeout_cycles = 64;
  static_opts.retry.backoff_base_cycles = 16;
  static_opts.retry.backoff_cap_cycles = 128;
  ServerOptions migrated_opts = static_opts;
  migrated_opts.migration.epoch_batches = 8;
  migrated_opts.migration.top_k = 8;
  migrated_opts.migration.subtree_level = 4;

  const ServeReport fixed = run_once(mapping, static_opts, requests);
  const ServeReport migrated = run_once(mapping, migrated_opts, requests);
  EXPECT_LE(migrated.rounds, fixed.rounds);
  EXPECT_LT(total_retries(migrated), total_retries(fixed));
  EXPECT_LT(migrated.final_cycle, fixed.final_cycle);
}

// ---------------------------------------------------------------------------
// Forest: per-tenant migration scope.

TEST(ServeMigration, ForestMigratesPerTenantWithWorkerInvariance) {
  const CompleteBinaryTree hot_tree(9);
  const ColorMapping hot_mapping(make_optimal_color_mapping(hot_tree, 13));
  const CompleteBinaryTree cold_tree(7);
  const ModuloMapping cold_mapping(cold_tree, 7);

  const auto hot_requests = skewed_requests(hot_tree.levels(), 180, 0xF0A);
  const auto cold_requests = skewed_requests(cold_tree.levels(), 60, 0xF0B);

  auto run_forest = [&](unsigned workers, unsigned pipeline_workers) {
    ForestOptions fopts;
    fopts.tick_cycles = 2;
    fopts.replicas = 4;
    fopts.workers = workers;
    fopts.drr_quantum_nodes = 24;
    fopts.pipeline.workers = pipeline_workers;
    Forest forest(fopts);

    TenantOptions hot;
    hot.rate = 3.0;
    hot.admission.queue_bound = 32;
    hot.batch.max_batch_nodes = 24;
    hot.batch.max_wait_cycles = 4;
    hot.migration.epoch_batches = 4;
    hot.migration.top_k = 4;
    hot.migration.subtree_level = 3;
    forest.add_tenant(hot_mapping, std::move(hot));

    TenantOptions cold;  // migration disabled: the default policy
    cold.admission.queue_bound = 16;
    cold.batch.max_batch_nodes = 16;
    forest.add_tenant(cold_mapping, std::move(cold));

    for (const Request& r : hot_requests) forest.submit(0, r);
    for (const Request& r : cold_requests) forest.submit(1, r);
    return forest.run();
  };

  const ForestReport want = run_forest(1, 0);
  const Json* migration = want.tenants[0].metrics.find("migration");
  ASSERT_NE(migration, nullptr) << "hot tenant's planner never exported";
  EXPECT_GE(migration->find("epochs_planned")->as_uint(), 1u);
  EXPECT_EQ(want.tenants[1].metrics.find("migration"), nullptr)
      << "migration leaked across the tenant boundary";

  for (const unsigned workers : {2u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const ForestReport got = run_forest(workers, 0);
    ASSERT_EQ(got.to_json().dump(), want.to_json().dump());
  }
  for (const unsigned pipeline_workers : {1u, 2u}) {
    SCOPED_TRACE("pipeline_workers=" + std::to_string(pipeline_workers));
    const ForestReport piped = run_forest(1, pipeline_workers);
    ASSERT_EQ(piped.tenants.size(), want.tenants.size());
    for (std::size_t i = 0; i < want.tenants.size(); ++i) {
      SCOPED_TRACE("tenant=" + std::to_string(i));
      const TenantReport& a = piped.tenants[i];
      const TenantReport& b = want.tenants[i];
      ASSERT_EQ(a.responses.size(), b.responses.size());
      for (std::size_t r = 0; r < a.responses.size(); ++r) {
        ASSERT_EQ(a.responses[r].status, b.responses[r].status) << r;
        ASSERT_EQ(a.responses[r].completion_cycle,
                  b.responses[r].completion_cycle)
            << r;
      }
      ASSERT_EQ(a.served_nodes, b.served_nodes);
      // Tenant metrics carry no wall-time: identical outright, the
      // migration audit included.
      ASSERT_EQ(a.metrics.dump(), b.metrics.dump());
    }
    ASSERT_EQ(piped.final_cycle, want.final_cycle);
  }
}

// ---------------------------------------------------------------------------
// A subtree level at or past the tree's last level names subtrees that do
// not exist; the HeatTracker would size 2^L x M counters for them (and the
// shift is undefined from L = 64). Rejected at construction, where nothing
// has been allocated yet; these tests never run a server.

MigrationPolicy policy_at_level(std::uint32_t subtree_level) {
  MigrationPolicy policy;
  policy.epoch_batches = 4;
  policy.top_k = 2;
  policy.subtree_level = subtree_level;
  return policy;
}

TEST(ServeMigration, ServerRejectsSubtreeLevelPastTheTree) {
  const CompleteBinaryTree tree(8);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 7));
  ServerOptions opts;
  opts.migration = policy_at_level(tree.levels());
  EXPECT_THROW(Server(mapping, opts), std::invalid_argument);
  opts.migration = policy_at_level(64);
  EXPECT_THROW(Server(mapping, opts), std::invalid_argument);
  // The leaves' level is the deepest valid one.
  opts.migration = policy_at_level(tree.levels() - 1);
  EXPECT_NO_THROW(Server(mapping, opts));
}

TEST(ServeMigration, ForestRejectsSubtreeLevelPastTheTree) {
  const CompleteBinaryTree tree(8);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 7));
  TenantOptions opts;
  opts.migration = policy_at_level(tree.levels());
  Forest forest;
  EXPECT_THROW((void)forest.add_tenant(mapping, opts), std::invalid_argument);
  opts.migration = policy_at_level(64);
  EXPECT_THROW((void)forest.add_tenant(mapping, opts), std::invalid_argument);
  EXPECT_EQ(forest.tenant_count(), 0u);
  opts.migration = policy_at_level(tree.levels() - 1);
  EXPECT_EQ(forest.add_tenant(mapping, opts), 0u);
}

}  // namespace
}  // namespace pmtree::serve
