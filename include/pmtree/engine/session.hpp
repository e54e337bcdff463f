// EngineSession: the stage-granular entry to the event-driven engine.
//
// CycleEngine::run is monolithic: given a whole workload it flattens the
// accesses, resolves every color through the mapping, then simulates the
// module queues to completion. The serve layer's batch executor wants
// those phases split across batches: at each round barrier a lane's
// batches are color-resolved against the mapping in force at their cut
// (SIMD gather), fed in cut order, and simulated with the lane's earlier
// rounds. EngineSession is that split:
//
//   feed_resolved(colors, arrival)   — one access, its colors resolved
//                                      upstream (mapping.colors_of);
//   drain()                          — simulate what was fed since the
//                                      last drain, return the whole run.
//
// A session fed batch-by-batch returns an EngineResult bit-identical to
// one monolithic CycleEngine::run over the same batches with
// ArrivalSchedule::explicit_cycles of the same arrivals, with or without
// a FaultPlan (test_engine_session holds it directly). Every serve lane
// runs through a session.
//
// drain() resumes. A fault-free session keeps the engine's recurrence
// state (engine::detail::Recurrence: per module the last serve and last
// arrival cycle, the open busy interval, the queue-depth runs) together
// with the records, counters and latency histogram, so each drain
// simulates only the accesses fed since the previous one and then closes
// the open busy interval and depth runs into the result it returns,
// leaving the state as it was. Later arrivals queue strictly behind
// earlier ones, so a serving round that appends batches and drains again
// extends, never rewrites, the previous round's completions. A faulted
// session replays everything fed so far from cycle 0 through
// engine::detail::run_resolved — the SAME entry CycleEngine::run calls —
// because a fail-stop can drain an earlier request onto its reroute
// target behind a later one. Either way the session stores each access's
// colors once, and never its nodes.
//
// Arrivals must be nondecreasing across every feed, drains included:
// drain() throws std::invalid_argument otherwise and leaves the session
// as it was. A non-empty options.faults runs the stepping loop's fault
// steps, which reroute by color alone, so faulted lanes stream through
// sessions like healthy ones.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pmtree/engine/engine.hpp"
#include "pmtree/mapping/mapping.hpp"

namespace pmtree::engine {

class EngineSession {
 public:
  /// `mapping` (and `options.faults`, if set) must outlive the session.
  explicit EngineSession(const TreeMapping& mapping,
                         const EngineOptions& options = {});

  /// Appends one access arriving at `arrival` (cycles, nondecreasing
  /// across feeds — drain() throws otherwise). `colors` must be the
  /// mapping's colors for the access's nodes, in order, as the serve
  /// executor's resolve phase or mapping().colors_of(access) gives them.
  void feed_resolved(std::span<const Color> colors, std::uint64_t arrival) {
    colors_.insert(colors_.end(), colors.begin(), colors.end());
    push(arrival);
  }

  /// Accesses fed so far. drain()'s records[i] is the i-th feed.
  [[nodiscard]] std::size_t accesses() const noexcept {
    return arrivals_.size();
  }

  /// The trajectory of every access fed so far, run to completion.
  /// Bit-identical to CycleEngine::run over the same accesses with
  /// ArrivalSchedule::explicit_cycles(arrivals); throws
  /// std::invalid_argument, changing nothing, if the arrivals fed
  /// decrease. Feeding more and draining again extends the earlier
  /// result; draining again without feeding returns the same result. The
  /// result is the session's own: the next drain() overwrites it.
  [[nodiscard]] const EngineResult& drain();

  [[nodiscard]] const TreeMapping& mapping() const noexcept {
    return mapping_;
  }
  [[nodiscard]] const EngineOptions& options() const noexcept {
    return options_;
  }

 private:
  void push(std::uint64_t arrival) {
    first_.push_back(colors_.size());
    arrivals_.push_back(arrival);
  }

  const TreeMapping& mapping_;
  EngineOptions options_;
  std::vector<std::size_t> first_{0};  ///< first_[i] .. first_[i+1] slice
  std::vector<Color> colors_;          ///< flat resolved colors
  std::vector<std::uint64_t> arrivals_;
  detail::Recurrence recurrence_;  ///< fault-free sessions only
  /// The last drain's result; fault-free, its records are the accesses
  /// the recurrence has served.
  EngineResult result_;
};

}  // namespace pmtree::engine
