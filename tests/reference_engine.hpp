// ReferenceEngine: the frozen seed scalar cycle loop, kept as a test
// oracle (the pmtree_reference_engine target; not part of the library).
//
// When the CycleEngine hot loop was rebuilt as an event-driven core
// (a fault-free recurrence, and a stepping loop over flat arena queues
// and an active-module worklist for fault plans — DESIGN.md §8), the
// original implementation was kept verbatim under this name. It burns
// O(modules) per cycle on std::deque scans and histogram sampling, which
// makes it useless at scale but ideal as an oracle: its semantics are
// obviously the paper's service model, one line per rule.
//
// Consumers, each holding an engine to bit-identical trajectories
// (records, served counts, high-water marks, busy cycles, histograms)
// against it:
//   * test_engine_event_core — the event-driven core on randomized
//     workload/schedule pairs across every template family;
//   * test_engine_faults and test_engine_session — the event core and
//     EngineSession under random fault plans;
//   * test_engine_arrival — explicit arrival schedules against their
//     closed-form equivalents.
//
// Do not optimize this file; its only job is to stay the seed.
#pragma once

#include "pmtree/engine/engine.hpp"

namespace pmtree::engine {

class ReferenceEngine {
 public:
  explicit ReferenceEngine(const TreeMapping& mapping) : mapping_(mapping) {}

  /// The seed `CycleEngine::run` loop, metrics plumbing removed. Depth
  /// sampling is always per-busy-cycle (the seed had no sampling knobs).
  [[nodiscard]] EngineResult run(const Workload& workload,
                                 const ArrivalSchedule& schedule) const;

  /// The same scalar loop under a fault schedule (fault/plan.hpp): the
  /// oracle the event core's degraded path is differentially tested
  /// against. The fault-free run() above stays byte-for-byte the seed;
  /// this overload lives beside it rather than inside it.
  [[nodiscard]] EngineResult run(const Workload& workload,
                                 const ArrivalSchedule& schedule,
                                 const fault::FaultPlan& plan) const;

 private:
  const TreeMapping& mapping_;
};

}  // namespace pmtree::engine
