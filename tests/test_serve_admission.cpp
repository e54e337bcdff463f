// Admission-control tests, unit level and through the server: bounded
// queue with shed vs block overflow, FIFO promotion, deadline expiry
// while queued, dead-on-arrival intake, and the edge paths ISSUE lists —
// zero-request runs, empty-payload requests, graceful shutdown with
// requests in flight.
#include "pmtree/serve/admission.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "pmtree/mapping/baselines.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/tree/tree.hpp"

namespace pmtree::serve {
namespace {

using Decision = AdmissionController::Decision;

Request make_request(std::uint32_t client, std::uint64_t seq,
                     std::uint64_t submit, std::vector<Node> nodes,
                     std::uint64_t deadline = 0) {
  Request r;
  r.client = client;
  r.seq = seq;
  r.submit_cycle = submit;
  r.deadline_cycles = deadline;
  r.nodes = std::move(nodes);
  return r;
}

TEST(AdmissionController, ShedsWhenFullUnderShedPolicy) {
  AdmissionController admission(
      AdmissionOptions{.queue_bound = 2, .overflow = OverflowPolicy::kShed});
  const std::vector<Request> requests{
      make_request(0, 0, 0, {v(0, 0)}),
      make_request(0, 1, 0, {v(0, 1)}),
      make_request(0, 2, 0, {v(1, 1)}),
  };
  EXPECT_EQ(admission.offer(0, requests[0], 0), Decision::kAdmitted);
  EXPECT_EQ(admission.offer(1, requests[1], 0), Decision::kAdmitted);
  EXPECT_EQ(admission.offer(2, requests[2], 0), Decision::kShedNow);
  EXPECT_EQ(admission.pending_count(), 2u);
  EXPECT_EQ(admission.blocked_count(), 0u);
}

TEST(AdmissionController, BlocksThenPromotesFifo) {
  AdmissionController admission(
      AdmissionOptions{.queue_bound = 1, .overflow = OverflowPolicy::kBlock});
  const std::vector<Request> requests{
      make_request(0, 0, 0, {v(0, 0)}),
      make_request(0, 1, 0, {v(0, 1)}),
      make_request(0, 2, 0, {v(1, 1)}),
  };
  EXPECT_EQ(admission.offer(0, requests[0], 0), Decision::kAdmitted);
  EXPECT_EQ(admission.offer(1, requests[1], 0), Decision::kBlocked);
  EXPECT_EQ(admission.offer(2, requests[2], 0), Decision::kBlocked);
  EXPECT_EQ(admission.blocked_count(), 2u);

  // Queue still full: nothing promotes.
  std::vector<std::size_t> promoted;
  admission.promote(1, promoted);
  EXPECT_TRUE(promoted.empty());

  // Drain the pending slot, then promotion is FIFO and restamps admission.
  EXPECT_EQ(admission.pop_front().index, 0u);
  admission.promote(2, promoted);
  ASSERT_EQ(promoted, (std::vector<std::size_t>{1}));
  EXPECT_EQ(admission.pending().front().admitted_cycle, 2u);
  EXPECT_EQ(admission.blocked_count(), 1u);
}

TEST(AdmissionController, PopFrontTakesTheOldestWithItsNodes) {
  AdmissionController admission(AdmissionOptions{.queue_bound = 4});
  const std::vector<Request> requests{
      make_request(0, 0, 0, {v(0, 0), v(0, 1)}),
      make_request(0, 1, 0, {v(1, 2)}),
  };
  ASSERT_EQ(admission.offer(0, requests[0], 0), Decision::kAdmitted);
  ASSERT_EQ(admission.offer(1, requests[1], 1), Decision::kAdmitted);
  EXPECT_EQ(admission.pending_node_count(), 3u);

  const QueuedRequest first = admission.pop_front();
  EXPECT_EQ(first.index, 0u);
  EXPECT_EQ(first.nodes, &requests[0].nodes);
  EXPECT_EQ(admission.pending_node_count(), 1u);
  EXPECT_EQ(admission.pop_front().admitted_cycle, 1u);
  EXPECT_EQ(admission.pending_node_count(), 0u);
  EXPECT_TRUE(admission.idle());
  EXPECT_THROW((void)admission.pop_front(), std::out_of_range);
  EXPECT_EQ(admission.pending_node_count(), 0u);
}

TEST(AdmissionController, ExpireSweepsPendingAndBlocked) {
  AdmissionController admission(
      AdmissionOptions{.queue_bound = 1, .overflow = OverflowPolicy::kBlock});
  const std::vector<Request> requests{
      make_request(0, 0, 0, {v(0, 0)}, /*deadline=*/4),
      make_request(0, 1, 0, {v(0, 1)}, /*deadline=*/6),
      make_request(0, 2, 0, {v(1, 1)}),  // no deadline: immortal in queue
  };
  ASSERT_EQ(admission.offer(0, requests[0], 0), Decision::kAdmitted);
  ASSERT_EQ(admission.offer(1, requests[1], 0), Decision::kBlocked);
  ASSERT_EQ(admission.offer(2, requests[2], 0), Decision::kBlocked);

  std::vector<std::size_t> expired;
  admission.expire(3, expired);
  EXPECT_TRUE(expired.empty());

  // t = 4: the pending request's budget elapses (deadline boundary is
  // inclusive-expired: now >= submit + deadline).
  admission.expire(4, expired);
  EXPECT_EQ(expired, (std::vector<std::size_t>{0}));
  EXPECT_EQ(admission.pending_count(), 0u);
  EXPECT_EQ(admission.pending_node_count(), 0u);

  // t = 6: the blocked request expires without ever being admitted.
  expired.clear();
  admission.expire(6, expired);
  EXPECT_EQ(expired, (std::vector<std::size_t>{1}));
  EXPECT_EQ(admission.blocked_count(), 1u);
}

TEST(AdmissionController, DeadOnArrivalIsRejectedAtIntake) {
  AdmissionController admission(AdmissionOptions{});
  const Request late = make_request(0, 0, 0, {v(0, 0)}, /*deadline=*/3);
  EXPECT_EQ(admission.offer(0, late, 3), Decision::kDeadOnArrival);
  EXPECT_TRUE(admission.idle());
}

TEST(AdmissionController, ExpiredAtDoesNotWrapForNearMaxDeadlines) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  // Regression: submit + deadline overflows uint64 for generous budgets;
  // computed as a sum, submit=10 deadline=kMax-1 "expires" at cycle 8.
  EXPECT_FALSE(AdmissionController::expired_at(10, kMax - 1, 20));
  EXPECT_FALSE(AdmissionController::expired_at(10, kMax, kMax));
  EXPECT_FALSE(AdmissionController::expired_at(1, kMax, 0));

  // deadline 0 means "no deadline", never expires.
  EXPECT_FALSE(AdmissionController::expired_at(0, 0, kMax));

  // Ordinary budgets: boundary is inclusive-expired (elapsed >= budget).
  EXPECT_FALSE(AdmissionController::expired_at(5, 10, 14));
  EXPECT_TRUE(AdmissionController::expired_at(5, 10, 15));
  EXPECT_TRUE(AdmissionController::expired_at(5, 10, kMax));

  // A clock before the submit cycle has elapsed nothing (requests are
  // offered at ticks >= submit; the guard keeps the subtraction safe).
  EXPECT_FALSE(AdmissionController::expired_at(100, 5, 50));

  // Through intake: a near-max budget admits instead of dying on arrival.
  AdmissionController admission(AdmissionOptions{});
  const Request generous = make_request(0, 0, 0, {v(0, 0)}, kMax - 1);
  EXPECT_EQ(admission.offer(0, generous, 4096), Decision::kAdmitted);
}

// ---- Server-level edge paths -----------------------------------------

ServerOptions tight_options() {
  ServerOptions opts;
  opts.tick_cycles = 1;
  opts.batch.max_wait_cycles = 10;
  opts.batch.max_batch_nodes = 64;
  return opts;
}

TEST(ServerEdge, DeadlineExpiresWhileQueued) {
  const CompleteBinaryTree tree(6);
  const ModuloMapping map(tree, 4);
  ServerOptions opts = tight_options();
  Server server(map, opts);

  // max_wait 10 keeps the queue un-batched until cycle 10; the deadline
  // of 5 fires first, while the request is still queued.
  server.submit(make_request(0, 0, 0, {v(0, 0)}, /*deadline=*/5));
  const ServeReport report = server.run();
  ASSERT_EQ(report.responses.size(), 1u);
  EXPECT_EQ(report.responses[0].status, RequestStatus::kExpired);
  EXPECT_EQ(report.responses[0].completion_cycle, 5u);
  EXPECT_EQ(report.responses[0].latency(), 5u);
  EXPECT_TRUE(report.batches.empty());
  EXPECT_EQ(report.count(RequestStatus::kExpired), 1u);
}

TEST(ServerEdge, ShedUnderBackpressure) {
  const CompleteBinaryTree tree(6);
  const ModuloMapping map(tree, 4);
  ServerOptions opts = tight_options();
  opts.admission.queue_bound = 1;
  opts.admission.overflow = OverflowPolicy::kShed;
  Server server(map, opts);

  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    server.submit(make_request(0, seq, 0, {v(seq, 3)}));
  }
  const ServeReport report = server.run();
  ASSERT_EQ(report.responses.size(), 3u);
  // Canonical order admits seq 0 into the single slot; 1 and 2 shed
  // immediately with zero latency.
  EXPECT_EQ(report.responses[0].status, RequestStatus::kOk);
  EXPECT_EQ(report.responses[1].status, RequestStatus::kShed);
  EXPECT_EQ(report.responses[2].status, RequestStatus::kShed);
  EXPECT_EQ(report.responses[1].latency(), 0u);
  EXPECT_EQ(report.count(RequestStatus::kShed), 2u);
  const Json* shed = report.metrics.find("counters")->find("shed");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->as_uint(), 2u);
}

TEST(ServerEdge, BlockedCallersAreServedFifoNotShed) {
  const CompleteBinaryTree tree(6);
  const ModuloMapping map(tree, 4);
  ServerOptions opts = tight_options();
  opts.admission.queue_bound = 1;
  opts.admission.overflow = OverflowPolicy::kBlock;
  opts.batch.max_wait_cycles = 0;  // flush each tick so slots free quickly
  Server server(map, opts);

  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    server.submit(make_request(0, seq, 0, {v(seq, 3)}));
  }
  const ServeReport report = server.run();
  ASSERT_EQ(report.responses.size(), 3u);
  for (const Response& r : report.responses) {
    EXPECT_EQ(r.status, RequestStatus::kOk);
  }
  // FIFO: dispatch order follows submission order.
  EXPECT_LT(report.responses[0].dispatch_cycle,
            report.responses[1].dispatch_cycle);
  EXPECT_LT(report.responses[1].dispatch_cycle,
            report.responses[2].dispatch_cycle);
  EXPECT_EQ(report.count(RequestStatus::kShed), 0u);
}

TEST(ServerEdge, ZeroRequestRunIsWellFormed) {
  const CompleteBinaryTree tree(4);
  const ModuloMapping map(tree, 3);
  Server server(map);
  const ServeReport report = server.run();
  EXPECT_TRUE(report.responses.empty());
  EXPECT_TRUE(report.batches.empty());
  EXPECT_EQ(report.ticks, 0u);
  EXPECT_EQ(report.final_cycle, 0u);
  // The report still exports a complete, parseable JSON document.
  const auto parsed = Json::parse(report.to_json().dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("requests")->as_uint(), 0u);
}

TEST(ServerEdge, EmptyPayloadRequestCompletesAtDispatch) {
  const CompleteBinaryTree tree(4);
  const ModuloMapping map(tree, 3);
  ServerOptions opts = tight_options();
  opts.batch.max_wait_cycles = 0;
  Server server(map, opts);
  server.submit(make_request(0, 0, 0, {}));
  const ServeReport report = server.run();
  ASSERT_EQ(report.responses.size(), 1u);
  EXPECT_EQ(report.responses[0].status, RequestStatus::kOk);
  EXPECT_EQ(report.responses[0].completion_cycle,
            report.responses[0].dispatch_cycle);
}

TEST(ServerEdge, GracefulShutdownResolvesEveryInFlightRequest) {
  // A pile of requests with mixed deadlines under a tight blocking queue:
  // run() must leave nothing pending — every submitted request reaches a
  // terminal status (the graceful-shutdown contract).
  const CompleteBinaryTree tree(8);
  const ModuloMapping map(tree, 5);
  ServerOptions opts = tight_options();
  opts.admission.queue_bound = 2;
  opts.admission.overflow = OverflowPolicy::kBlock;
  opts.batch.max_batch_nodes = 4;
  opts.batch.max_wait_cycles = 6;
  Server server(map, opts);

  const std::size_t kRequests = 40;
  for (std::uint64_t seq = 0; seq < kRequests; ++seq) {
    const std::uint64_t deadline = seq % 3 == 0 ? 3 : 0;
    server.submit(make_request(static_cast<std::uint32_t>(seq % 4), seq / 4,
                               seq / 8, {v(seq % 16, 4), v(seq % 8, 3)},
                               deadline));
  }
  const ServeReport report = server.run();
  ASSERT_EQ(report.responses.size(), kRequests);
  std::uint64_t terminal = 0;
  for (const Response& r : report.responses) {
    EXPECT_NE(r.status, RequestStatus::kPending);
    terminal += r.status != RequestStatus::kPending ? 1 : 0;
    EXPECT_GE(r.completion_cycle, r.submit_cycle);
  }
  EXPECT_EQ(terminal, kRequests);
  EXPECT_EQ(report.count(RequestStatus::kOk) +
                report.count(RequestStatus::kShed) +
                report.count(RequestStatus::kExpired),
            kRequests);
  // Blocking policy never sheds.
  EXPECT_EQ(report.count(RequestStatus::kShed), 0u);
}

TEST(AdmissionController, PoolExhaustionBlocksInsteadOfShedding) {
  // The shared-pool verdict overrides the tenant's own overflow policy:
  // a kShed controller with queue space still BLOCKS when the pool above
  // it is full — shed must stay attributable to the tenant's own quota.
  AdmissionController admission(
      AdmissionOptions{.queue_bound = 4, .overflow = OverflowPolicy::kShed});
  const Request request = make_request(0, 0, 0, {v(0, 0)});
  EXPECT_EQ(admission.offer(0, request, 0, /*pool_has_room=*/false),
            Decision::kBlocked);
  EXPECT_EQ(admission.pending_count(), 0u);
  EXPECT_EQ(admission.blocked_count(), 1u);

  // Once the pool frees, promotion admits the blocked caller FIFO.
  std::vector<std::size_t> promoted;
  admission.promote(3, promoted);
  EXPECT_EQ(promoted, (std::vector<std::size_t>{0}));
  EXPECT_EQ(admission.pending_count(), 1u);
  EXPECT_EQ(admission.pending().front().admitted_cycle, 3u);
}

TEST(AdmissionController, PromoteHonorsTheCallerLimit) {
  AdmissionController admission(
      AdmissionOptions{.queue_bound = 8, .overflow = OverflowPolicy::kBlock});
  const std::vector<Request> requests{
      make_request(0, 0, 0, {v(0, 0)}),
      make_request(0, 1, 0, {v(0, 1)}),
      make_request(0, 2, 0, {v(1, 1)}),
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(admission.offer(i, requests[i], 0, /*pool_has_room=*/false),
              Decision::kBlocked);
  }
  ASSERT_EQ(admission.blocked_count(), 3u);

  // Limit 2: only the first two blocked callers promote, in FIFO order.
  std::vector<std::size_t> promoted;
  admission.promote(1, promoted, /*limit=*/2);
  EXPECT_EQ(promoted, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(admission.blocked_count(), 1u);

  promoted.clear();
  admission.promote(2, promoted, /*limit=*/0);
  EXPECT_TRUE(promoted.empty());  // zero headroom promotes nothing

  promoted.clear();
  admission.promote(2, promoted);  // default limit: unlimited
  EXPECT_EQ(promoted, (std::vector<std::size_t>{2}));
  EXPECT_TRUE(admission.blocked_count() == 0u);
}

TEST(AdmissionController, PoolBlockedCallersStillExpire) {
  // A caller parked by pool exhaustion keeps its deadline countdown: the
  // expire sweep covers the blocked queue too.
  AdmissionController admission(
      AdmissionOptions{.queue_bound = 4, .overflow = OverflowPolicy::kShed});
  const Request request = make_request(0, 0, 0, {v(0, 0)}, /*deadline=*/5);
  ASSERT_EQ(admission.offer(0, request, 0, /*pool_has_room=*/false),
            Decision::kBlocked);
  std::vector<std::size_t> expired;
  admission.expire(4, expired);
  EXPECT_TRUE(expired.empty());
  admission.expire(5, expired);
  EXPECT_EQ(expired, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(admission.idle());
}

}  // namespace
}  // namespace pmtree::serve
