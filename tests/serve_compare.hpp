// Serve report comparisons shared by the serve suites: two runs of one
// configuration (a thread count against the 1-thread run, a faulted or
// arena-backed run against a plain one) must agree field for field.
// Header-only; each suite includes it directly.
//
// Each helper ASSERTs, so a caller that must stop at the first mismatch
// wraps it in ASSERT_NO_FATAL_FAILURE. Indices in the messages are
// positions in the compared vectors.
//
//   expect_same_responses  — every Response field, in canonical order;
//   expect_same_batches    — id, cut cycle, members, deduplicated nodes
//                            and pre-dedup node count of every batch;
//   expect_same_lanes      — every lane's EngineResult, as JSON;
//   expect_same_mutations  — every dyn write's verdict and cycle;
//   expect_same_metrics_but — every metrics section but one named section
//                            (the wall-time "pipeline", or "memory"),
//                            matched in both directions.
//
// One check holds a report against itself rather than against another
// run:
//
//   expect_responses_match_lanes — every kOk response completes with its
//                            batch's record on the lanes the same report
//                            returns.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string_view>
#include <vector>

#include "pmtree/engine/engine.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/serve/mutation.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::serve {

inline void expect_same_responses(const std::vector<Response>& got,
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

inline void expect_same_batches(const std::vector<FormedBatch>& got,
                                const std::vector<FormedBatch>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t b = 0; b < got.size(); ++b) {
    ASSERT_EQ(got[b].id, want[b].id) << b;
    ASSERT_EQ(got[b].formed_cycle, want[b].formed_cycle) << b;
    ASSERT_EQ(got[b].members, want[b].members) << b;
    ASSERT_EQ(got[b].nodes, want[b].nodes) << b;
    ASSERT_EQ(got[b].requested_nodes, want[b].requested_nodes) << b;
  }
}

inline void expect_same_lanes(const std::vector<engine::EngineResult>& got,
                              const std::vector<engine::EngineResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t l = 0; l < got.size(); ++l) {
    ASSERT_EQ(got[l].to_json().dump(), want[l].to_json().dump()) << "lane "
                                                                 << l;
  }
}

inline void expect_same_mutations(const std::vector<MutationRecord>& got,
                                  const std::vector<MutationRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t m = 0; m < got.size(); ++m) {
    ASSERT_EQ(got[m].batch, want[m].batch) << m;
    ASSERT_EQ(got[m].client, want[m].client) << m;
    ASSERT_EQ(got[m].seq, want[m].seq) << m;
    ASSERT_EQ(got[m].kind, want[m].kind) << m;
    ASSERT_EQ(got[m].target, want[m].target) << m;
    ASSERT_EQ(got[m].payload, want[m].payload) << m;
    ASSERT_EQ(got[m].status, want[m].status) << m;
    ASSERT_EQ(got[m].applied_cycle, want[m].applied_cycle) << m;
  }
}

/// Every section of `want` but `section` is in `got` with the same JSON,
/// and `got` has no section but `section` that `want` lacks.
inline void expect_same_metrics_but(const Json& got, const Json& want,
                                    std::string_view section) {
  for (const auto& [key, value] : want.members()) {
    if (key == section) continue;
    const Json* other = got.find(key);
    ASSERT_NE(other, nullptr) << "missing metrics section " << key;
    ASSERT_EQ(other->dump(), value.dump()) << "metrics section " << key;
  }
  for (const auto& [key, value] : got.members()) {
    (void)value;
    if (key == section) continue;
    ASSERT_NE(want.find(key), nullptr) << "extra metrics section " << key;
  }
}

/// Every kOk response's completion_cycle is its batch's: batch b of a slot
/// with L lanes is record b / L of lane b mod L.
inline void expect_responses_match_lanes(
    const std::vector<Response>& responses,
    const std::vector<engine::EngineResult>& lanes) {
  ASSERT_FALSE(lanes.empty());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const Response& r = responses[i];
    if (r.status != RequestStatus::kOk) continue;
    const engine::EngineResult& lane = lanes[r.batch % lanes.size()];
    const std::size_t access = r.batch / lanes.size();
    ASSERT_LT(access, lane.records.size()) << i;
    ASSERT_EQ(r.completion_cycle, lane.records[access].completion)
        << i << ": batch " << r.batch;
  }
}

}  // namespace pmtree::serve
