// BatchFormer unit tests: the coalescing kernel (dedup: sort and dedup in
// place; coalesce: dedup plus maximal per-level runs) and the cut policy
// (node threshold, wait budget, oversized requests, DRR cost), driven the
// way the control plane drives it: form_one_raw() while due(), then
// dedup().
#include "pmtree/serve/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "pmtree/serve/admission.hpp"
#include "pmtree/serve/request.hpp"

namespace pmtree::serve {
namespace {

Request make_request(std::uint64_t seq, std::uint64_t submit,
                     std::vector<Node> nodes) {
  Request r;
  r.client = 0;
  r.seq = seq;
  r.submit_cycle = submit;
  r.nodes = std::move(nodes);
  return r;
}

/// Every batch due at `now`, cut as the control plane cuts them:
/// form_one_raw() while due(), each node set finished by dedup().
std::vector<FormedBatch> cut_due(BatchFormer& former, std::uint64_t now,
                                 AdmissionController& admission) {
  std::vector<FormedBatch> batches;
  while (former.due(now, admission)) {
    FormedBatch batch = former.form_one_raw(now, admission);
    BatchFormer::dedup(batch.nodes);
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Independent reference for dedup(): Node-struct sort and unique.
std::vector<Node> sorted_unique(std::vector<Node> nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

/// Raw Node constructor: dedup() and coalesce() are pure functions of
/// (level, index) pairs, so the borderline inputs below deliberately
/// sidestep v()'s index-fits-the-level assertion (deep q-ary /
/// array-backed trees mint coordinates complete binary trees cannot).
Node raw_node(std::uint64_t index, std::uint32_t level) {
  return Node{level, index};
}

/// dedup() must equal the reference and work in place: same buffer, and
/// nothing allocated for the result.
void expect_dedup_matches_reference(std::vector<Node> nodes) {
  const std::vector<Node> want = sorted_unique(nodes);
  const Node* const buffer = nodes.data();
  const std::size_t capacity = nodes.capacity();
  BatchFormer::dedup(nodes);
  ASSERT_EQ(nodes, want);
  EXPECT_EQ(nodes.data(), buffer);
  EXPECT_EQ(nodes.capacity(), capacity);
}

TEST(BatchDedup, SortsAndDedupsInPlace) {
  // Levels 0-6 go through occupancy masks (index 63 is level 6's last
  // bit), deeper levels through sorted per-level segments.
  expect_dedup_matches_reference({v(5, 3), v(2, 3), v(3, 3), v(2, 3),
                                  v(0, 0), v(6, 3), v(63, 6), v(0, 6),
                                  v(63, 6), v(64, 7), v(63, 7), v(0, 7),
                                  v(64, 7), v(1000, 12), v(999, 12)});
  std::vector<Node> one{v(3, 2)};
  BatchFormer::dedup(one);
  EXPECT_EQ(one, (std::vector<Node>{v(3, 2)}));
}

TEST(BatchDedup, EmptyInputStaysEmpty) {
  std::vector<Node> nodes;
  BatchFormer::dedup(nodes);
  EXPECT_TRUE(nodes.empty());
}

TEST(BatchDedup, ThirtyTwoLevelsFallBackToTheComparisonSort) {
  // Levels up to 31 bucket with 32-bit segment keys; one node at level 32
  // or deeper sends the whole batch through std::sort, shallow nodes
  // included. Both must compute the same function.
  const std::uint64_t top31 = (std::uint64_t{1} << 31) - 1;
  expect_dedup_matches_reference({raw_node(top31, 31), raw_node(0, 31),
                                  raw_node(top31, 31), raw_node(5, 3),
                                  raw_node(4, 3), raw_node(5, 3)});
  expect_dedup_matches_reference(
      {raw_node(std::uint64_t{1} << 32, 32), raw_node(7, 32),
       raw_node(std::uint64_t{1} << 32, 32), raw_node(5, 3),
       raw_node(4, 3), raw_node(5, 3), raw_node(63, 6), raw_node(0, 0)});
  expect_dedup_matches_reference({raw_node((std::uint64_t{1} << 48) + 1, 60),
                                  raw_node(3, 40), raw_node(3, 40),
                                  raw_node(9, 31)});
}

TEST(BatchDedup, RandomizedInputsMatchReference) {
  // Dense draws force long duplicate runs; the level range straddles the
  // mask levels, the segments and, in every third batch, the fallback.
  std::uint64_t state = 0xD1B54A32D192ED03ull;
  const auto next = [&state](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % bound;
  };
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t levels = trial % 3 == 0 ? 40 : 32;
    std::vector<Node> nodes;
    const std::size_t count = next(80);
    for (std::size_t k = 0; k < count; ++k) {
      const auto level = static_cast<std::uint32_t>(next(levels));
      const std::uint64_t width = std::uint64_t{1} << std::min(level, 5u);
      nodes.push_back(raw_node(next(width), level));
    }
    expect_dedup_matches_reference(std::move(nodes));
  }
}

TEST(BatchCoalesce, SortsDedupsAndFindsMaximalRuns) {
  std::vector<Node> nodes{v(5, 3), v(2, 3), v(3, 3), v(2, 3), v(0, 0),
                          v(6, 3)};
  const CompositeInstance c = BatchFormer::coalesce(nodes);

  // Deduped and in (level, index) order.
  const std::vector<Node> want{v(0, 0), v(2, 3), v(3, 3), v(5, 3), v(6, 3)};
  EXPECT_EQ(nodes, want);

  // Maximal runs: {root}, {v(2..3, 3)}, {v(5..6, 3)} — a C(5, 3).
  ASSERT_EQ(c.component_count(), 3u);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_TRUE(c.is_disjoint());
  const auto* run0 = c.parts()[0].get_if<LevelRunInstance>();
  const auto* run1 = c.parts()[1].get_if<LevelRunInstance>();
  const auto* run2 = c.parts()[2].get_if<LevelRunInstance>();
  ASSERT_NE(run0, nullptr);
  ASSERT_NE(run1, nullptr);
  ASSERT_NE(run2, nullptr);
  EXPECT_EQ(run0->first, v(0, 0));
  EXPECT_EQ(run0->size, 1u);
  EXPECT_EQ(run1->first, v(2, 3));
  EXPECT_EQ(run1->size, 2u);
  EXPECT_EQ(run2->first, v(5, 3));
  EXPECT_EQ(run2->size, 2u);
  // The composite's flattened node order matches the deduped input.
  EXPECT_EQ(c.nodes(), want);
}

TEST(BatchCoalesce, RunsNeverSpanLevels) {
  // v(3, 2) is the last node of level 2; v(0, 3) is BFS-adjacent but on
  // the next level — they must form two runs, not one.
  std::vector<Node> nodes{v(3, 2), v(0, 3)};
  const CompositeInstance c = BatchFormer::coalesce(nodes);
  ASSERT_EQ(c.component_count(), 2u);
  EXPECT_EQ(c.size(), 2u);
}

TEST(BatchCoalesce, EmptyInputYieldsEmptyComposite) {
  std::vector<Node> nodes;
  const CompositeInstance c = BatchFormer::coalesce(nodes);
  EXPECT_EQ(c.component_count(), 0u);
  EXPECT_EQ(c.size(), 0u);
}

TEST(BatchFormer, HoldsUntilWaitBudgetElapses) {
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 1000,
                                 .max_wait_cycles = 5});
  const std::vector<Request> requests{
      make_request(0, 0, {v(0, 0)}),
      make_request(1, 2, {v(0, 1), v(1, 1)}),
  };
  ASSERT_EQ(admission.offer(0, requests[0], 0),
            AdmissionController::Decision::kAdmitted);
  ASSERT_EQ(admission.offer(1, requests[1], 2),
            AdmissionController::Decision::kAdmitted);

  // Oldest waited 4 < 5: nothing cuts.
  EXPECT_TRUE(cut_due(former, 4, admission).empty());
  EXPECT_EQ(admission.pending_count(), 2u);

  // At 5, the wait budget elapses and both ride one batch.
  const auto batches = cut_due(former, 5, admission);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].formed_cycle, 5u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(batches[0].requested_nodes, 3u);
  EXPECT_EQ(batches[0].nodes.size(), 3u);
  EXPECT_EQ(batches[0].coalesced_nodes(), 0u);
  EXPECT_TRUE(admission.idle());
  EXPECT_EQ(admission.pending_node_count(), 0u);
}

TEST(BatchFormer, CutsOnNodeThresholdAndRespectsCap) {
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 4, .max_wait_cycles = 100});
  const std::vector<Request> requests{
      make_request(0, 0, {v(0, 2), v(1, 2)}),
      make_request(1, 0, {v(2, 2), v(3, 2)}),
      make_request(2, 0, {v(0, 3), v(1, 3)}),
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(admission.offer(i, requests[i], 0),
              AdmissionController::Decision::kAdmitted);
  }

  // 6 pending nodes >= 4: one batch cuts, capped at 4 nodes (two
  // requests); the 2-node remainder is below both triggers and waits.
  const auto batches = cut_due(former, 0, admission);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(batches[0].nodes.size(), 4u);
  EXPECT_EQ(admission.pending_count(), 1u);
  EXPECT_EQ(admission.pending_node_count(), 2u);

  // The straggler cuts once its wait budget elapses.
  const auto later = cut_due(former, 100, admission);
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later[0].id, 1u);
  EXPECT_EQ(later[0].members, (std::vector<std::size_t>{2}));
}

TEST(BatchFormer, OversizedRequestDispatchesAlone) {
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 2, .max_wait_cycles = 0});
  std::vector<Node> big;
  for (std::uint64_t i = 0; i < 7; ++i) big.push_back(v(i, 3));
  const std::vector<Request> requests{
      make_request(0, 0, big),
      make_request(1, 0, {v(0, 1)}),
  };
  ASSERT_EQ(admission.offer(0, requests[0], 0),
            AdmissionController::Decision::kAdmitted);
  ASSERT_EQ(admission.offer(1, requests[1], 0),
            AdmissionController::Decision::kAdmitted);

  // max_wait 0 flushes everything this tick: the oversized request is its
  // own batch (never split, never starved); the small one follows.
  const auto batches = cut_due(former, 0, admission);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0}));
  EXPECT_EQ(batches[0].nodes, big);  // one L(7) run
  EXPECT_EQ(batches[1].members, (std::vector<std::size_t>{1}));
}

TEST(BatchFormer, WaitBudgetCountsFromAdmissionNotSubmission) {
  // Regression: a caller promoted out of the blocked queue long after its
  // submit cycle has only just become batchable. Measuring the wait from
  // submit_cycle would see the whole blocked time as already-elapsed
  // budget and cut an undersized batch on the promotion tick.
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 1000,
                                 .max_wait_cycles = 5});
  const Request old = make_request(0, /*submit=*/0, {v(0, 0)});
  // Offered (think: promoted) at tick 50 — 50 cycles after submission.
  ASSERT_EQ(admission.offer(0, old, 50),
            AdmissionController::Decision::kAdmitted);
  ASSERT_EQ(admission.pending().front().admitted_cycle, 50u);

  // Submit-based waiting would cut here (54 - 0 >= 5). Admission-based
  // waiting holds: only 4 of the 5-cycle window have elapsed.
  EXPECT_TRUE(cut_due(former, 54, admission).empty());
  EXPECT_EQ(admission.pending_count(), 1u);

  const auto batches = cut_due(former, 55, admission);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(admission.idle());
}

TEST(BatchFormer, ExactlyFullRequestIsNotOversized) {
  // A request of exactly max_batch_nodes nodes fills one batch to the
  // brim; the next request starts a fresh batch rather than overflowing.
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 3, .max_wait_cycles = 0});
  const std::vector<Request> requests{
      make_request(0, 0, {v(0, 3), v(1, 3), v(2, 3)}),
      make_request(1, 0, {v(0, 1)}),
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(admission.offer(i, requests[i], 0),
              AdmissionController::Decision::kAdmitted);
  }
  const auto batches = cut_due(former, 0, admission);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0}));
  EXPECT_EQ(batches[0].nodes.size(), 3u);
  EXPECT_EQ(batches[1].members, (std::vector<std::size_t>{1}));
  EXPECT_EQ(admission.pending_node_count(), 0u);
}

TEST(BatchFormer, OversizedRequestBehindSmallOnesWaitsItsTurn) {
  // FIFO is never reordered around an oversized request: the small
  // requests ahead of it share a capped batch, then the oversized one
  // dispatches alone, members strictly in admission order.
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 4, .max_wait_cycles = 0});
  std::vector<Node> big;
  for (std::uint64_t i = 0; i < 9; ++i) big.push_back(v(i, 4));
  const std::vector<Request> requests{
      make_request(0, 0, {v(0, 1)}),
      make_request(1, 0, {v(1, 1)}),
      make_request(2, 0, std::move(big)),
      make_request(3, 0, {v(0, 2)}),
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(admission.offer(i, requests[i], 0),
              AdmissionController::Decision::kAdmitted);
  }
  const auto batches = cut_due(former, 0, admission);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(batches[1].members, (std::vector<std::size_t>{2}));
  EXPECT_EQ(batches[1].nodes.size(), 9u);
  EXPECT_EQ(batches[2].members, (std::vector<std::size_t>{3}));
  EXPECT_EQ(admission.pending_node_count(), 0u);
}

TEST(BatchFormer, DuplicateLookupsCoalesce) {
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 64, .max_wait_cycles = 0});
  // Three clients hitting the same hot path.
  const std::vector<Node> path{v(0, 0), v(1, 1), v(2, 2)};
  const std::vector<Request> requests{
      make_request(0, 0, path),
      make_request(1, 0, path),
      make_request(2, 0, path),
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(admission.offer(i, requests[i], 0),
              AdmissionController::Decision::kAdmitted);
  }
  const auto batches = cut_due(former, 0, admission);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].requested_nodes, 9u);
  EXPECT_EQ(batches[0].nodes.size(), 3u);  // the union is one path
  EXPECT_EQ(batches[0].coalesced_nodes(), 6u);
}

TEST(BatchFormer, NextBatchCostMatchesWhatFormOneTakes) {
  // The DRR peek and the actual cut run the same fill walk: across a
  // mixed queue (small, oversized, empty payloads), every peeked cost
  // equals the next batch's pre-dedup node count exactly.
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 4, .max_wait_cycles = 0});
  const std::vector<Request> requests{
      make_request(0, 0, {v(0, 2), v(1, 2)}),
      make_request(1, 0, {}),  // empty payload joins the same batch
      make_request(2, 0, {v(0, 3), v(1, 3), v(2, 3), v(3, 3), v(4, 3)}),
      make_request(3, 0, {v(0, 1)}),
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(admission.offer(i, requests[i], 0),
              AdmissionController::Decision::kAdmitted);
  }
  std::vector<FormedBatch> batches;
  while (former.due(0, admission)) {
    const std::uint64_t cost = former.next_batch_cost(admission);
    FormedBatch batch = former.form_one_raw(0, admission);
    EXPECT_EQ(batch.requested_nodes, cost) << "batch " << batch.id;
    batches.push_back(std::move(batch));
  }
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(batches[1].members, (std::vector<std::size_t>{2}));  // oversized
  EXPECT_EQ(batches[2].members, (std::vector<std::size_t>{3}));
  EXPECT_EQ(admission.pending_count(), 0u);
}

TEST(BatchFormer, DueGatedCutsFollowTheFillWalkAcrossTicks) {
  // The control plane's loop, tick by tick: the cap ends batch 0 at
  // exactly three nodes and batch 1 on one three-node request; the last
  // one-node request waits out its two-cycle budget from admission.
  const std::vector<Request> requests{
      make_request(0, 0, {v(1, 2), v(0, 2)}),
      make_request(1, 1, {v(2, 2)}),
      make_request(2, 3, {v(2, 4), v(0, 4), v(1, 4)}),
      make_request(3, 3, {v(5, 3)}),
  };
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 3, .max_wait_cycles = 2});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(admission.offer(i, requests[i], requests[i].submit_cycle),
              AdmissionController::Decision::kAdmitted);
  }
  const std::vector<FormedBatch> at3 = cut_due(former, 3, admission);
  ASSERT_EQ(at3.size(), 2u);
  EXPECT_EQ(at3[0].id, 0u);
  EXPECT_EQ(at3[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(at3[0].nodes, (std::vector<Node>{v(0, 2), v(1, 2), v(2, 2)}));
  EXPECT_EQ(at3[0].requested_nodes, 3u);
  EXPECT_EQ(at3[1].id, 1u);
  EXPECT_EQ(at3[1].members, (std::vector<std::size_t>{2}));
  EXPECT_EQ(at3[1].nodes, (std::vector<Node>{v(0, 4), v(1, 4), v(2, 4)}));
  EXPECT_EQ(admission.pending_node_count(), 1u);
  EXPECT_TRUE(cut_due(former, 4, admission).empty());
  const std::vector<FormedBatch> at5 = cut_due(former, 5, admission);
  ASSERT_EQ(at5.size(), 1u);
  EXPECT_EQ(at5[0].id, 2u);
  EXPECT_EQ(at5[0].formed_cycle, 5u);
  EXPECT_EQ(at5[0].members, (std::vector<std::size_t>{3}));
  EXPECT_TRUE(cut_due(former, 6, admission).empty());
  EXPECT_TRUE(admission.idle());
}

TEST(BatchFormer, RawCutsFinishAlikeThroughDedupAndCoalesce) {
  // form_one_raw() leaves the members' nodes in fill order, duplicates
  // included; dedup() finishes them as the executor does, and coalesce()
  // (kept for the E26 replay) must leave exactly the same nodes, since
  // the replay's gate compares its batches with Server::run's.
  const std::vector<Request> requests{
      make_request(0, 0, {v(2, 3), v(3, 3), v(2, 3)}),  // duplicate inside
      make_request(1, 0, {v(5, 3), v(4, 3)}),           // out of order
      make_request(2, 0, {}),
      make_request(3, 0, {v(0, 1), v(0, 0)}),
  };
  AdmissionController admission(AdmissionOptions{});
  BatchFormer former(BatchPolicy{.max_batch_nodes = 5, .max_wait_cycles = 0});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(admission.offer(i, requests[i], 0),
              AdmissionController::Decision::kAdmitted);
  }
  std::vector<std::vector<std::size_t>> members;
  while (former.due(0, admission)) {
    FormedBatch batch = former.form_one_raw(0, admission);
    EXPECT_EQ(batch.id, members.size());
    EXPECT_EQ(batch.formed_cycle, 0u);
    std::vector<Node> raw;
    for (const std::size_t m : batch.members) {
      raw.insert(raw.end(), requests[m].nodes.begin(), requests[m].nodes.end());
    }
    EXPECT_EQ(batch.nodes, raw);
    EXPECT_EQ(batch.requested_nodes, raw.size());
    EXPECT_TRUE(batch.decomposition.parts().empty());
    std::vector<Node> coalesced = batch.nodes;
    (void)BatchFormer::coalesce(coalesced);
    BatchFormer::dedup(batch.nodes);
    EXPECT_EQ(batch.nodes, sorted_unique(raw));
    EXPECT_EQ(coalesced, batch.nodes);
    members.push_back(batch.members);
  }
  EXPECT_EQ(members, (std::vector<std::vector<std::size_t>>{{0, 1}, {2, 3}}));
  EXPECT_EQ(admission.pending_node_count(), 0u);
}

/// Independent reference for coalesce(): Node-struct sort, dedup, maximal
/// same-level consecutive runs.
void expect_coalesce_matches_reference(std::vector<Node> nodes) {
  const std::vector<Node> want = sorted_unique(nodes);
  std::vector<std::pair<Node, std::uint64_t>> runs;
  std::size_t i = 0;
  while (i < want.size()) {
    std::size_t j = i + 1;
    while (j < want.size() && want[j].level == want[i].level &&
           want[j].index == want[i].index + (j - i)) {
      ++j;
    }
    runs.emplace_back(want[i], j - i);
    i = j;
  }

  const CompositeInstance c = BatchFormer::coalesce(nodes);
  ASSERT_EQ(nodes, want);
  ASSERT_EQ(c.component_count(), runs.size());
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const auto* run = c.parts()[k].get_if<LevelRunInstance>();
    ASSERT_NE(run, nullptr) << k;
    EXPECT_EQ(run->first, runs[k].first) << k;
    EXPECT_EQ(run->size, runs[k].second) << k;
  }
}

TEST(BatchCoalesce, PackedFastPathAndFallbackAgreeWithReference) {
  // The borders of an earlier packed-key kernel (level < 2^16, index <
  // 2^48), pinned against an independent reference. Every input holds a
  // node at level 32 or deeper, so dedup() takes its comparison-sort
  // fallback; the run scan must not merge runs across levels or past the
  // top of an index range.
  const std::uint64_t kMaxPackedIndex = (std::uint64_t{1} << 48) - 1;
  const std::uint32_t kMaxPackedLevel = (std::uint32_t{1} << 16) - 1;

  expect_coalesce_matches_reference(
      {raw_node(kMaxPackedIndex, kMaxPackedLevel),
       raw_node(kMaxPackedIndex - 1, 7), raw_node(kMaxPackedIndex, 7),
       raw_node(0, kMaxPackedLevel), raw_node(1, 2), raw_node(2, 2),
       raw_node(1, 2)});
  expect_coalesce_matches_reference(
      {raw_node(3, kMaxPackedLevel + 1), raw_node(2, kMaxPackedLevel + 1),
       raw_node(5, 3), raw_node(4, 3), raw_node(4, 3)});
  expect_coalesce_matches_reference(
      {raw_node(kMaxPackedIndex + 1, 60), raw_node(kMaxPackedIndex + 2, 60),
       raw_node(kMaxPackedIndex + 1, 60), raw_node(0, 0)});
  // One deep node sends the whole batch to the fallback; the shallow
  // majority must still coalesce identically.
  expect_coalesce_matches_reference(
      {raw_node(8, 5), raw_node(9, 5), raw_node(10, 5),
       raw_node(kMaxPackedIndex + 7, 50), raw_node(8, 5)});
}

TEST(BatchCoalesce, RandomizedPackedInputsMatchReference) {
  // Dense random draws force long runs, duplicate collapses and
  // cross-level adjacency through the bucketed path.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&state](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % bound;
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Node> nodes;
    const std::size_t count = next(40);
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint32_t level = static_cast<std::uint32_t>(next(4));
      nodes.push_back(raw_node(next(12), level));
    }
    expect_coalesce_matches_reference(std::move(nodes));
  }
}

TEST(BatchFormer, NextBatchCostIsZeroOnlyForEmptyOrAllEmptyQueues) {
  AdmissionController admission(AdmissionOptions{});
  const BatchFormer former(
      BatchPolicy{.max_batch_nodes = 8, .max_wait_cycles = 0});
  EXPECT_EQ(former.next_batch_cost(admission), 0u);
  EXPECT_FALSE(former.due(0, admission));

  // A queue holding only empty payloads is due (wait budget 0) at zero
  // cost — the forest's DRR must always afford it, so it cannot wedge.
  const Request empty = make_request(0, 0, {});
  ASSERT_EQ(admission.offer(0, empty, 0),
            AdmissionController::Decision::kAdmitted);
  EXPECT_TRUE(former.due(0, admission));
  EXPECT_EQ(former.next_batch_cost(admission), 0u);
}

}  // namespace
}  // namespace pmtree::serve
