// End-to-end server tests: the dictionary and range-index clients driving
// a Server, batching/coalescing observable in the metrics, replica
// round-robin, JSON report shape, deterministic re-runs, and requests
// outside the served tree refused at submit.
#include "pmtree/serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "pmtree/apps/dictionary.hpp"
#include "pmtree/apps/range_index.hpp"
#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/dyn/incremental.hpp"
#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/serve/clients.hpp"

namespace pmtree::serve {
namespace {

using fault::FaultPlan;

std::vector<std::int64_t> sequential_keys(std::uint32_t levels) {
  std::vector<std::int64_t> keys(pow2(levels) - 1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<std::int64_t>(10 * i);
  }
  return keys;
}

TEST(ServerClients, DictionarySearchesRoundTrip) {
  const std::uint32_t kLevels = 6;
  const Dictionary dict(sequential_keys(kLevels));
  const ColorMapping map = make_optimal_color_mapping(dict.tree(), 11);
  ServerOptions opts;
  opts.tick_cycles = 2;
  opts.batch.max_batch_nodes = 24;
  opts.batch.max_wait_cycles = 8;
  Server server(map, opts);

  DictionaryClient client(dict, /*client_id=*/7);
  const std::vector<Dictionary::Key> keys{0, 10, 15, 300, 620, -5};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    client.submit_search(server, keys[i], /*submit_cycle=*/2 * i);
  }
  const ServeReport report = server.run();
  const auto outcomes = client.join(report);
  ASSERT_EQ(outcomes.size(), keys.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE("key=" + std::to_string(keys[i]));
    EXPECT_EQ(outcomes[i].response.status, RequestStatus::kOk);
    // The joined answer agrees with a direct (unserved) search.
    const Dictionary::SearchResult direct = dict.search(keys[i]);
    EXPECT_EQ(outcomes[i].result.found, direct.found);
    if (direct.found) {
      EXPECT_EQ(outcomes[i].result.node, direct.node);
    }
    // Timing is causally ordered on the simulated clock.
    const Response& r = outcomes[i].response;
    EXPECT_GE(r.dispatch_cycle, r.submit_cycle);
    EXPECT_GT(r.completion_cycle, r.dispatch_cycle);  // a path is >= 1 node
  }
  // Present keys found, absent keys not.
  EXPECT_TRUE(outcomes[0].result.found);
  EXPECT_TRUE(outcomes[1].result.found);
  EXPECT_FALSE(outcomes[2].result.found);  // 15 is between stored keys
  EXPECT_FALSE(outcomes[5].result.found);  // -5 below the range
}

TEST(ServerClients, RangeQueriesRoundTrip) {
  const RangeIndex index(sequential_keys(5));
  const ModuloMapping map(index.tree(), 7);
  ServerOptions opts;
  opts.batch.max_wait_cycles = 4;
  Server server(map, opts);

  RangeIndexClient client(index, /*client_id=*/1);
  const std::vector<std::pair<std::int64_t, std::int64_t>> ranges{
      {0, 50}, {95, 145}, {200, 190}, {290, 400}};
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    client.submit_query(server, ranges[i].first, ranges[i].second,
                        /*submit_cycle=*/i);
  }
  const ServeReport report = server.run();
  const auto outcomes = client.join(report);
  ASSERT_EQ(outcomes.size(), ranges.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE("range " + std::to_string(ranges[i].first) + ".." +
                 std::to_string(ranges[i].second));
    EXPECT_EQ(outcomes[i].response.status, RequestStatus::kOk);
    const RangeIndex::QueryResult direct =
        index.query(ranges[i].first, ranges[i].second);
    EXPECT_EQ(outcomes[i].result.keys, direct.keys);
  }
  EXPECT_TRUE(outcomes[2].result.keys.empty());  // inverted range
}

TEST(ServerClients, HotKeyLookupsCoalesceAcrossClients) {
  const Dictionary dict(sequential_keys(6));
  const ColorMapping map = make_optimal_color_mapping(dict.tree(), 11);
  ServerOptions opts;
  opts.tick_cycles = 1;
  opts.batch.max_batch_nodes = 256;
  opts.batch.max_wait_cycles = 0;  // flush the co-arriving burst as one batch
  Server server(map, opts);

  // Eight clients, same hot key, same cycle: the eight identical paths
  // must collapse into one physical path in one batch.
  std::vector<DictionaryClient> clients;
  for (std::uint32_t c = 0; c < 8; ++c) clients.emplace_back(dict, c);
  for (auto& client : clients) client.submit_search(server, 100, 0);

  const ServeReport report = server.run();
  ASSERT_EQ(report.batches.size(), 1u);
  EXPECT_EQ(report.batches[0].members.size(), 8u);
  EXPECT_EQ(report.batches[0].requested_nodes, 8u * dict.tree().levels());
  EXPECT_EQ(report.batches[0].nodes.size(), dict.tree().levels());
  EXPECT_EQ(report.batches[0].coalesced_nodes(), 7u * dict.tree().levels());
  // All eight observe the same completion cycle (they share the batch).
  for (std::size_t i = 1; i < report.responses.size(); ++i) {
    EXPECT_EQ(report.responses[i].completion_cycle,
              report.responses[0].completion_cycle);
  }
  const Json* coalesced =
      report.metrics.find("batches")->find("coalesced_nodes");
  ASSERT_NE(coalesced, nullptr);
  EXPECT_EQ(coalesced->as_uint(), 7u * dict.tree().levels());
}

TEST(Server, ReplicasTakeBatchesRoundRobin) {
  const CompleteBinaryTree tree(8);
  const ModuloMapping map(tree, 5);
  ServerOptions opts;
  opts.tick_cycles = 1;
  opts.replicas = 2;
  opts.batch.max_batch_nodes = 2;
  opts.batch.max_wait_cycles = 0;
  Server server(map, opts);

  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    Request r;
    r.client = 0;
    r.seq = seq;
    r.submit_cycle = seq;
    r.nodes = {v(seq, 4), v(seq + 1, 4)};
    server.submit(std::move(r));
  }
  const ServeReport report = server.run();
  ASSERT_EQ(report.batches.size(), 6u);
  ASSERT_EQ(report.replicas.size(), 2u);
  // Batch b ran on replica b % 2: each replica saw 3 accesses.
  EXPECT_EQ(report.replicas[0].accesses, 3u);
  EXPECT_EQ(report.replicas[1].accesses, 3u);
  EXPECT_EQ(report.replicas[0].requests + report.replicas[1].requests, 12u);
}

TEST(Server, ReportJsonIsCompleteAndParseable) {
  const CompleteBinaryTree tree(6);
  const ModuloMapping map(tree, 4);
  ServerOptions opts;
  opts.batch.max_wait_cycles = 2;
  Server server(map, opts);
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    Request r;
    r.client = static_cast<std::uint32_t>(seq % 2);
    r.seq = seq / 2;
    r.submit_cycle = seq;
    r.nodes = {v(seq, 3)};
    server.submit(std::move(r));
  }
  const ServeReport report = server.run();
  const auto parsed = Json::parse(report.to_json().dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("requests")->as_uint(), 5u);
  EXPECT_EQ(parsed->find("ok")->as_uint(), 5u);
  EXPECT_EQ(parsed->find("responses")->items().size(), 5u);
  const Json* latency = parsed->find("metrics")->find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->find("count")->as_uint(), 5u);
  for (const char* q : {"p50", "p95", "p99", "p999"}) {
    ASSERT_NE(latency->find(q), nullptr) << q;
  }
  // SLO percentiles are monotone.
  EXPECT_LE(latency->find("p50")->as_number(),
            latency->find("p99")->as_number());
  EXPECT_LE(latency->find("p99")->as_number(),
            latency->find("p999")->as_number());
}

TEST(Server, IdenticalSubmissionsReproduceIdenticalReports) {
  const CompleteBinaryTree tree(8);
  const ColorMapping map = make_optimal_color_mapping(tree, 9);
  const auto run_once = [&] {
    ServerOptions opts;
    opts.tick_cycles = 3;
    opts.replicas = 2;
    opts.admission.queue_bound = 4;
    opts.batch.max_batch_nodes = 8;
    opts.batch.max_wait_cycles = 5;
    Server server(map, opts);
    for (std::uint64_t seq = 0; seq < 30; ++seq) {
      Request r;
      r.client = static_cast<std::uint32_t>(seq % 3);
      r.seq = seq / 3;
      r.submit_cycle = seq / 2;
      r.deadline_cycles = seq % 5 == 0 ? 4 : 0;
      r.nodes = {v(seq % 32, 5), v((seq * 7) % 16, 4)};
      server.submit(std::move(r));
    }
    return server.run();
  };
  const ServeReport a = run_once();
  const ServeReport b = run_once();
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

// A request naming a node outside the served tree is refused at submit,
// in every build type: such a node has no color, no arena slot and no
// coalescing mask bit, so once queued it would crash the resolve or
// complete as a different node. Nothing of a refused call is queued, and
// the vector overload checks every request before it queues any.

Request request_of(std::uint64_t seq, std::vector<Node> nodes) {
  Request r;
  r.client = 0;
  r.seq = seq;
  r.submit_cycle = seq;
  r.nodes = std::move(nodes);
  return r;
}

TEST(Server, SubmitRejectsNodesOutsideTheTree) {
  const CompleteBinaryTree tree(8);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 15));
  Server server(mapping);
  const Node inside = v(5, 3);
  ASSERT_THROW(server.submit(request_of(0, {inside, Node{3, 40}})),
               std::out_of_range);
  for (const Node outside : {Node{8, 0}, Node{9, 0}, Node{3, 8},
                             Node{3, 100}, Node{7, 1000000}}) {
    ASSERT_THROW(server.submit(request_of(0, {outside})), std::out_of_range);
  }
  ASSERT_THROW(server.submit(std::vector<Request>{
                   request_of(0, {inside}), request_of(1, {Node{4, 16}})}),
               std::out_of_range);
  EXPECT_TRUE(server.run().responses.empty());

  // The tree's last level and widest index are inside.
  server.submit(std::vector<Request>{request_of(0, {inside}),
                                     request_of(1, {Node{7, 127}})});
  const ServeReport report = server.run();
  ASSERT_EQ(report.responses.size(), 2u);
  EXPECT_EQ(report.count(RequestStatus::kOk), 2u);
}

/// Request `seq` at `submit` for the clock-horizon tests: ids 0 and 2,
/// both on module 0 of a two-module modulo mapping, so the access takes
/// two cycles.
Request at_cycle(std::uint64_t seq, std::uint64_t submit) {
  Request r = request_of(seq, {v(0, 0), v(1, 1)});
  r.submit_cycle = submit;
  return r;
}

TEST(Server, SubmitRejectsCyclesPastTheClockHorizon) {
  // Past the horizon the tick clock wraps: with 4-cycle ticks, a request
  // at UINT64_MAX - 1 or - 2 sent run() stepping forever, and one at - 3
  // or - 16 completed at cycle 13 or 1, before it was submitted. Submit
  // throws for all of them. This test never calls run(), so a queued
  // request fails it without hanging it.
  const CompleteBinaryTree tree(8);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 15));
  ServerOptions opts;
  opts.tick_cycles = 4;
  Server server(mapping, opts);
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (const std::uint64_t cycle :
       {kMax, kMax - 1, kMax - 2, kMax - 3, kMax - 16, kClockHorizon + 1}) {
    EXPECT_THROW(server.submit(at_cycle(0, cycle)), std::out_of_range)
        << cycle;
  }
  EXPECT_THROW(server.submit(std::vector<Request>{at_cycle(0, 0),
                                                  at_cycle(1, kMax - 1)}),
               std::out_of_range);
}

TEST(Server, RequestAtTheClockHorizonCompletes) {
  const CompleteBinaryTree tree(8);
  const ModuloMapping mapping(tree, 2);
  ServerOptions opts;
  opts.tick_cycles = 4;
  opts.retry.max_retries = 1;
  opts.retry.attempt_timeout_cycles = 1;
  Server server(mapping, opts);
  // One request past the horizon refuses the whole vector.
  EXPECT_THROW(server.submit(std::vector<Request>{
                   at_cycle(0, kClockHorizon), at_cycle(1, kClockHorizon + 1)}),
               std::out_of_range);
  EXPECT_TRUE(server.run().responses.empty());

  // Both attempts overstay the 1-cycle timeout. The one at cycle 0
  // retries; the one at the horizon would resend past it, so its first
  // completion stands.
  server.submit(std::vector<Request>{at_cycle(0, 0), at_cycle(1, kClockHorizon)});
  const ServeReport report = server.run();
  ASSERT_EQ(report.responses.size(), 2u);
  EXPECT_EQ(report.responses[0].retries, 1u);
  const Response& last = report.responses[1];
  EXPECT_EQ(last.status, RequestStatus::kOk);
  EXPECT_EQ(last.retries, 0u);
  EXPECT_EQ(last.submit_cycle, kClockHorizon);
  EXPECT_GE(last.admitted_cycle, last.submit_cycle);
  EXPECT_GE(last.dispatch_cycle, last.admitted_cycle);
  EXPECT_GT(last.completion_cycle, last.dispatch_cycle + 1);
  EXPECT_GE(report.final_cycle, last.completion_cycle);
}

TEST(Server, RejectsTicksAndWaitsPastTheClockHorizon) {
  // A tick of 2^63 + 1 wrapped the tick clock: a request at cycle 1 was
  // admitted at 2^63 + 1 and dispatched at 2. A 2^62 tick under an
  // unbounded wait never cut it, so run() never returned. Construction
  // throws for both; nothing here runs.
  const CompleteBinaryTree tree(8);
  const ColorMapping mapping(make_optimal_color_mapping(tree, 15));
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (const std::uint64_t past :
       {kClockHorizon + 1, (std::uint64_t{1} << 63) + 1, kMax}) {
    ServerOptions tick;
    tick.tick_cycles = past;
    EXPECT_THROW(Server(mapping, tick), std::invalid_argument) << past;
    ServerOptions wait;
    wait.tick_cycles = kClockHorizon;
    wait.batch.max_wait_cycles = past;
    EXPECT_THROW(Server(mapping, wait), std::invalid_argument) << past;
  }
}

TEST(Server, TickAndWaitAtTheClockHorizonServeARequestThere) {
  const CompleteBinaryTree tree(8);
  const ModuloMapping mapping(tree, 2);
  ServerOptions opts;
  opts.tick_cycles = kClockHorizon;
  opts.batch.max_wait_cycles = kClockHorizon;
  Server server(mapping, opts);
  EXPECT_EQ(server.options().tick_cycles, kClockHorizon);
  server.submit(
      std::vector<Request>{at_cycle(0, 1), at_cycle(1, kClockHorizon)});
  const ServeReport report = server.run();
  ASSERT_EQ(report.responses.size(), 2u);
  for (const Response& r : report.responses) {
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_LE(r.submit_cycle, r.admitted_cycle);
    EXPECT_LE(r.admitted_cycle, r.dispatch_cycle);
    EXPECT_LT(r.dispatch_cycle, r.completion_cycle);
  }
  // Both arrive by the first tick, 2^62, and wait out the budget there.
  EXPECT_EQ(report.responses[1].admitted_cycle, kClockHorizon);
  EXPECT_EQ(report.responses[1].dispatch_cycle, 2 * kClockHorizon);
  EXPECT_GE(report.final_cycle, report.responses[1].completion_cycle);
}

TEST(Server, TicksPastTheLastTickThrowOverflow) {
  // Every option sits inside the horizon, but a request arriving at 2^62
  // is admitted at tick 2^63 - 2 and waits out its budget until 2^64 - 4.
  // With two modules and a blocked second request, the next tick wrapped
  // and run() threw std::invalid_argument from the engine; with one
  // module, an 8-node access dispatched there completed at 2^64 - 1,
  // three cycles later. run() throws std::overflow_error instead, at
  // every thread count, and before the cut: a write cut there would have
  // applied to the tree.
  const CompleteBinaryTree tree(8);
  const std::vector<Node> eight{v(0, 0), v(0, 1), v(1, 1), v(0, 2),
                                v(1, 2),  v(2, 2), v(3, 2), v(0, 3)};
  dyn::IncrementalColorer colorer =
      dyn::IncrementalColorer::color(tree, 5, 2);
  for (const auto& [workers, pipeline] :
       {std::pair{1u, 0u}, {2u, 0u}, {8u, 0u}, {1u, 2u}, {1u, 8u}}) {
    SCOPED_TRACE(::testing::Message() << "workers " << workers
                                      << ", pipeline " << pipeline);
    ServerOptions opts;
    opts.tick_cycles = kClockHorizon - 1;
    opts.batch.max_wait_cycles = kClockHorizon;
    opts.admission.queue_bound = 1;
    opts.admission.overflow = OverflowPolicy::kBlock;
    opts.workers = workers;
    opts.pipeline.workers = pipeline;

    const ModuloMapping two(tree, 2);
    Server blocked(two, opts);
    Request second = request_of(1, {v(0, 0)});
    second.submit_cycle = kClockHorizon;
    blocked.submit(std::vector<Request>{at_cycle(0, kClockHorizon),
                                        std::move(second)});
    EXPECT_THROW((void)blocked.run(), std::overflow_error);

    const ModuloMapping one(tree, 1);
    Server serial(one, opts);
    Request access = request_of(0, eight);
    access.submit_cycle = kClockHorizon;
    serial.submit(std::move(access));
    EXPECT_THROW((void)serial.run(), std::overflow_error);

    dyn::DynamicTree live(tree.levels());
    const std::uint64_t version = live.version();
    ServerOptions writes = opts;
    writes.dyn.tree = &live;
    writes.dyn.colorer = &colorer;
    Server writer(colorer, writes);
    Request insert = request_of(0, {v(0, 1)});
    insert.submit_cycle = kClockHorizon;
    insert.kind = RequestKind::kInsert;
    insert.target = v(0, 1);
    writer.submit(std::move(insert));
    EXPECT_THROW((void)writer.run(), std::overflow_error);
    EXPECT_EQ(live.version(), version);
    EXPECT_FALSE(live.is_live(v(0, 1)));
  }
}

TEST(ServerRetry, RetryBudgetExhaustedExactlyAtDeadlineCycleExpires) {
  // Edge case at the retry/deadline boundary: the single allowed retry
  // resends at dispatch + timeout + backoff(1), and the deadline is set
  // to exactly that cycle — the resend is dead on arrival, the request
  // expires at precisely its deadline with its attempt budget spent.
  const CompleteBinaryTree tree(4);
  const ModuloMapping mapping(tree, 2);
  // Payload: two nodes on module 0; a slowdown only lets module 0 serve
  // every 64th cycle, so the attempt's residency far exceeds the timeout.
  Request request;
  request.client = 0;
  request.seq = 0;
  request.submit_cycle = 0;
  request.nodes = {v(0, 0), v(1, 1)};  // ids 0 and 2: both color 0 mod 2

  FaultPlan plan;
  plan.slow_down(0, 0, 10000, 64);
  ServerOptions opts;
  opts.tick_cycles = 1;
  opts.batch.max_wait_cycles = 0;
  opts.engine.faults = &plan;

  // Sanity: without retries the attempt completes, but far too slowly.
  {
    Server server(mapping, opts);
    server.submit(request);
    const ServeReport baseline = server.run();
    ASSERT_EQ(baseline.count(RequestStatus::kOk), 1u);
    ASSERT_GT(baseline.responses[0].completion_cycle -
                  baseline.responses[0].dispatch_cycle,
              5u);
  }

  opts.retry.max_retries = 1;
  opts.retry.attempt_timeout_cycles = 5;
  opts.retry.backoff_base_cycles = 3;
  const std::uint64_t resend = 0 + 5 + opts.retry.backoff(1);  // cycle 8
  request.deadline_cycles = resend;  // budget elapses exactly at resend

  Server server(mapping, opts);
  server.submit(request);
  const ServeReport report = server.run();
  ASSERT_EQ(report.responses.size(), 1u);
  const Response& r = report.responses[0];
  EXPECT_EQ(r.status, RequestStatus::kExpired);
  EXPECT_EQ(r.retries, opts.retry.max_retries);
  EXPECT_EQ(r.completion_cycle, resend);  // expired at the deadline, exactly
  EXPECT_EQ(r.latency(), request.deadline_cycles);
  EXPECT_EQ(report.rounds, 2u);
}

TEST(ServerRetry, OneCycleMoreDeadlineLetsTheFinalRetryLand) {
  // The companion boundary: with one extra cycle of budget the resend is
  // admitted, dispatches, and completes — the attempt budget is spent but
  // the request finishes kOk (dispatched work is immune to the deadline).
  const CompleteBinaryTree tree(4);
  const ModuloMapping mapping(tree, 2);
  Request request;
  request.client = 0;
  request.seq = 0;
  request.submit_cycle = 0;
  request.nodes = {v(0, 0), v(1, 1)};

  FaultPlan plan;
  plan.slow_down(0, 0, 10000, 64);
  ServerOptions opts;
  opts.tick_cycles = 1;
  opts.batch.max_wait_cycles = 0;
  opts.engine.faults = &plan;
  opts.retry.max_retries = 1;
  opts.retry.attempt_timeout_cycles = 5;
  opts.retry.backoff_base_cycles = 3;
  request.deadline_cycles = 0 + 5 + opts.retry.backoff(1) + 1;

  Server server(mapping, opts);
  server.submit(request);
  const ServeReport report = server.run();
  ASSERT_EQ(report.responses.size(), 1u);
  const Response& r = report.responses[0];
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_EQ(r.retries, opts.retry.max_retries);
  EXPECT_GT(r.completion_cycle, request.deadline_cycles);
  EXPECT_EQ(report.rounds, 2u);
}

TEST(ServerRetry, BackoffSaturatesAtTheCapInsteadOfWrapping) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  RetryPolicy policy;
  policy.backoff_base_cycles = std::uint64_t{1} << 63;
  policy.backoff_cap_cycles = kMax;
  EXPECT_EQ(policy.backoff(1), std::uint64_t{1} << 63);
  EXPECT_EQ(policy.backoff(2), kMax);  // 2^64 does not fit: the cap does
  EXPECT_EQ(policy.backoff(100), kMax);

  // Backoff never shrinks as attempts grow, whatever the doubling reaches.
  policy.backoff_base_cycles = 3;
  std::uint64_t previous = 0;
  for (std::uint32_t attempt = 1; attempt <= 200; ++attempt) {
    const std::uint64_t b = policy.backoff(attempt);
    ASSERT_GE(b, previous) << "attempt " << attempt;
    previous = b;
  }
  EXPECT_EQ(previous, kMax);
}

TEST(ServerRetry, ResendCycleSaturates) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.attempt_timeout_cycles = 5;
  policy.backoff_base_cycles = 3;
  EXPECT_EQ(policy.resend_cycle(10, 1), 10u + 5u + 3u);
  EXPECT_EQ(policy.resend_cycle(kMax - 7, 1), kMax);
  EXPECT_EQ(policy.resend_cycle(kMax - 8, 1), kMax - 8 + 8);
  policy.backoff_base_cycles = kMax - 2;
  policy.backoff_cap_cycles = kMax;
  EXPECT_EQ(policy.resend_cycle(0, 1), kMax);  // timeout + backoff overflows
}

TEST(ServerRetry, ResendPastTheEndOfTheClockNeverHappens) {
  // Three nodes on module 0 take 3 cycles, past the 1-cycle attempt
  // timeout, so every attempt times out. Retry 1 resends 2^61 cycles
  // later, inside the clock's horizon (kClockHorizon, 2^62); retry 2's
  // backoff doubles to 2^62, so its resend lies past the horizon: the
  // second attempt's completion stands.
  const CompleteBinaryTree tree(4);
  const ModuloMapping mapping(tree, 2);
  Request request;
  request.client = 0;
  request.seq = 0;
  request.submit_cycle = 0;
  request.nodes = {v(0, 0), v(1, 1), v(1, 2)};  // ids 0, 2, 4: module 0

  ServerOptions opts;
  opts.tick_cycles = 1;
  opts.batch.max_wait_cycles = 0;
  opts.retry.max_retries = 2;
  opts.retry.attempt_timeout_cycles = 1;
  opts.retry.backoff_base_cycles = std::uint64_t{1} << 61;
  opts.retry.backoff_cap_cycles = ~std::uint64_t{0};

  Server server(mapping, opts);
  server.submit(request);
  const ServeReport report = server.run();
  ASSERT_EQ(report.responses.size(), 1u);
  const Response& r = report.responses[0];
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_EQ(r.retries, 1u);
  EXPECT_EQ(r.dispatch_cycle, 0u + 1u + (std::uint64_t{1} << 61));
  EXPECT_EQ(r.completion_cycle, r.dispatch_cycle + 3);
  EXPECT_EQ(report.rounds, 2u);
}

}  // namespace
}  // namespace pmtree::serve
