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
//   feed(access, arrival)            — resolve colors here, accumulate;
//   feed_resolved(colors, arrival)   — colors already resolved upstream;
//   drain()                          — simulate the accumulated prefix.
//
// drain() hands the accumulated (first, colors, arrivals) arrays to
// engine::detail::run_resolved — the SAME entry CycleEngine::run calls —
// so a session fed batch-by-batch returns an EngineResult bit-identical
// to one monolithic run over the same batches with
// ArrivalSchedule::explicit_cycles of the same arrivals, with or without
// a FaultPlan (test_engine_session holds it directly). Every serve lane
// runs through a session.
//
// drain() is const and repeatable: each call replays the prefix fed so
// far from cycle 0. Replaying is the determinism anchor — a serving round
// that appends batches and drains again extends, never rewrites, the
// previous round's completions (later arrivals queue strictly behind).
// What the session never redoes is the expensive upstream half: nodes are
// not stored at all, and each batch's colors are resolved exactly once no
// matter how many rounds drain.
//
// Arrivals must be nondecreasing (open-loop explicit schedule): drain()
// throws std::invalid_argument otherwise. A non-empty options.faults runs
// the stepping loop's fault steps, which reroute by color alone, so
// faulted lanes stream through sessions like healthy ones.
// options.memory is ignored: sessions never see nodes.
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
                         const EngineOptions& options = {})
      : mapping_(mapping), options_(options) {}

  /// Appends one access arriving at `arrival` (cycles, nondecreasing
  /// across feeds — drain() throws otherwise), resolving its colors
  /// through the mapping.
  void feed(std::span<const Node> access, std::uint64_t arrival) {
    const std::size_t base = colors_.size();
    colors_.resize(base + access.size());
    mapping_.color_of_batch(
        access, std::span<Color>(colors_.data() + base, access.size()));
    push(arrival);
  }

  /// Same, with the colors already resolved upstream (the serve
  /// executor's resolve phase). `colors` must be the mapping's colors for the
  /// access's nodes, in order.
  void feed_resolved(std::span<const Color> colors, std::uint64_t arrival) {
    colors_.insert(colors_.end(), colors.begin(), colors.end());
    push(arrival);
  }

  /// Accesses fed so far. drain()'s records[i] is the i-th feed.
  [[nodiscard]] std::size_t accesses() const noexcept {
    return arrivals_.size();
  }

  /// Simulates the accumulated prefix from cycle 0 to completion.
  /// Bit-identical to CycleEngine::run over the same accesses with
  /// ArrivalSchedule::explicit_cycles(arrivals), which throws
  /// std::invalid_argument if the arrivals fed decrease. Repeatable;
  /// feeding more and draining again extends the earlier result.
  [[nodiscard]] EngineResult drain() const {
    return detail::run_resolved(
        mapping_.num_modules(), first_, colors_,
        ArrivalSchedule::explicit_cycles(arrivals_), options_);
  }

  /// Forgets everything fed so far (a fresh run's sessions, without
  /// re-constructing — keeps capacity).
  void clear() {
    first_.assign(1, 0);
    colors_.clear();
    arrivals_.clear();
  }

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
};

}  // namespace pmtree::engine
