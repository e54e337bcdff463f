// The one EngineResult comparator of the engine suites
// (test_engine_event_core, test_engine_faults, test_engine_arrival).
//
// It holds two results to bit identity on every field EngineResult has:
// the scalars, the fault and real-memory counters, each record's id,
// request count, arrival and completion, the per-module arrays and both
// histograms. Test-only; header-only so each suite includes it directly.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "pmtree/engine/engine.hpp"

namespace pmtree::engine {

inline void expect_same_histogram(const Histogram& got,
                                  const Histogram& want) {
  ASSERT_EQ(got.count(), want.count());
  ASSERT_EQ(got.sum(), want.sum());
  ASSERT_EQ(got.min(), want.min());
  ASSERT_EQ(got.max(), want.max());
  const auto gb = got.buckets();
  const auto wb = want.buckets();
  ASSERT_EQ(gb.size(), wb.size());
  for (std::size_t i = 0; i < gb.size(); ++i) {
    ASSERT_EQ(gb[i].upper, wb[i].upper) << "bucket " << i;
    ASSERT_EQ(gb[i].count, wb[i].count) << "bucket " << i;
  }
}

/// Bit identity of two trajectories. `compare_depths` is off when `got`
/// ran with depth sampling off (its queue-depth histogram is then empty,
/// which the caller checks separately).
inline void expect_same_trajectory(const EngineResult& got,
                                   const EngineResult& want,
                                   bool compare_depths = true) {
  ASSERT_EQ(got.accesses, want.accesses);
  ASSERT_EQ(got.requests, want.requests);
  ASSERT_EQ(got.completion_cycle, want.completion_cycle);
  ASSERT_EQ(got.busy_cycles, want.busy_cycles);
  ASSERT_EQ(got.rerouted_requests, want.rerouted_requests);
  ASSERT_EQ(got.stalled_cycles, want.stalled_cycles);
  ASSERT_EQ(got.served, want.served);
  ASSERT_EQ(got.queue_high_water, want.queue_high_water);
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    ASSERT_EQ(got.records[i].id, want.records[i].id) << "access " << i;
    ASSERT_EQ(got.records[i].requests, want.records[i].requests)
        << "access " << i;
    ASSERT_EQ(got.records[i].arrival, want.records[i].arrival)
        << "access " << i;
    ASSERT_EQ(got.records[i].completion, want.records[i].completion)
        << "access " << i;
  }
  expect_same_histogram(got.latency, want.latency);
  if (compare_depths) expect_same_histogram(got.queue_depth, want.queue_depth);
}

}  // namespace pmtree::engine
