// Fault injection: deterministic failure schedules for parallel memory
// systems.
//
// The paper's machine model — and every layer built on it so far —
// assumes all M modules are permanently healthy. Production parallel
// memory systems are not: modules fail outright (a dead DRAM rank, an
// evicted cache shard) and degrade transiently (thermal throttling, a
// background scrub stealing service slots). The memory-bounded
// tree-scheduling literature cited in serve/admission.hpp treats degraded
// resource availability as first-class; this layer does the same for the
// pmtree engines.
//
// A FaultPlan is a *schedule*, not a random process: a list of fail-stop
// events (module m is dead from cycle c onward) and transient slowdowns
// (module m serves one request every `period` cycles during [begin, end)).
// Determinism is the point — the same plan produces bit-identical trajectories on the
// event-driven core, the frozen reference loop and any serve worker count,
// so degraded behaviour is testable and benchmarkable exactly like
// healthy behaviour (DESIGN.md §12).
//
// Semantics under a plan (implemented identically by CycleEngine and the
// reference loop in tests/reference_engine.hpp):
//
//   * fail-stop  — at the first busy cycle t >= cycle, the module's queue
//     is drained FIFO onto its reroute target, and every later request
//     colored to it is enqueued on the target instead. Reroute targets
//     are assigned round-robin: the j-th dead module (ascending id) maps
//     to the j-th live module mod |live|. The fault suites hold the
//     engine's degraded routing to a test-only mapping that folds colors
//     by the same rule (tests/test_mappings.hpp).
//   * slowdown   — while t is in [begin, end), the module serves only on
//     cycles with (t - begin) % period == 0; its queue otherwise stalls
//     in place (counted in EngineResult::stalled_cycles).
//
// Fail-stops reroute (never deadlock); slowdowns stall (bounded by the
// period). Every access therefore still completes, just later — degraded,
// not dead.
#pragma once

#include <cstdint>
#include <vector>

#include "pmtree/util/json.hpp"

namespace pmtree::fault {

/// Module `module` is dead — serves nothing, queue rerouted — for every
/// cycle t >= cycle.
struct FailStop {
  std::uint32_t module = 0;
  std::uint64_t cycle = 0;
};

/// Module `module` serves only on cycles t in [begin, end) with
/// (t - begin) % period == 0 (and serves normally outside the interval).
/// period is clamped to >= 1 at compile time (period 1 is a no-op).
struct Slowdown {
  std::uint32_t module = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t period = 1;
};

class FaultPlan {
 public:
  /// The empty plan: no faults. Engines treat it exactly as "no plan" —
  /// the differential suite pins bit-identity to the fault-free run.
  FaultPlan() = default;

  FaultPlan& fail_stop(std::uint32_t module, std::uint64_t cycle) {
    fail_stops_.push_back(FailStop{module, cycle});
    return *this;
  }
  FaultPlan& slow_down(std::uint32_t module, std::uint64_t begin,
                       std::uint64_t end, std::uint64_t period) {
    slowdowns_.push_back(Slowdown{module, begin, end, period});
    return *this;
  }

  [[nodiscard]] bool empty() const noexcept {
    return fail_stops_.empty() && slowdowns_.empty();
  }
  [[nodiscard]] const std::vector<FailStop>& fail_stops() const noexcept {
    return fail_stops_;
  }
  [[nodiscard]] const std::vector<Slowdown>& slowdowns() const noexcept {
    return slowdowns_;
  }

  /// Machine-readable form for bench reports.
  [[nodiscard]] Json to_json() const;

 private:
  std::vector<FailStop> fail_stops_;
  std::vector<Slowdown> slowdowns_;
};

/// A FaultPlan compiled against a concrete module count: O(1) per-module
/// queries plus the reroute table, shared by both engine implementations.
/// Entries naming modules >= `modules` are ignored. If the plan would
/// fail-stop every module, the one with the latest fail cycle (ties:
/// highest id) is spared so that reroute targets always exist — degraded
/// service beats a deadlocked simulation.
class FaultTimeline {
 public:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  FaultTimeline(const FaultPlan& plan, std::uint32_t modules);

  /// Whether module m is dead at cycle t: its first fail cycle has come.
  [[nodiscard]] bool dead_at(std::uint32_t m, std::uint64_t t) const noexcept {
    return t >= fail_cycle_[m];
  }
  /// Whether module m retires a request at (the service step of) cycle t:
  /// alive, and no slowdown interval is skipping this cycle.
  [[nodiscard]] bool serves_at(std::uint32_t m, std::uint64_t t) const {
    if (t >= fail_cycle_[m]) return false;
    for (const Slowdown& s : slow_by_module_[m]) {
      if (t >= s.begin && t < s.end && (t - s.begin) % s.period != 0) {
        return false;
      }
    }
    return true;
  }

  /// Reroute target of color c: c itself while alive; the round-robin
  /// survivor for ever-failing modules (j-th dead ascending -> j-th live
  /// mod |live|). A pure function of the dead set.
  [[nodiscard]] std::uint32_t redirect(std::uint32_t c) const noexcept {
    return redirect_[c];
  }

  /// Modules with a fail-stop in the plan, ascending. (Timeline-wide:
  /// these are dead *eventually*, not necessarily at cycle 0.)
  [[nodiscard]] const std::vector<std::uint32_t>& dead_modules()
      const noexcept {
    return dead_;
  }

  /// Fail-stop events sorted by (cycle, module) — the order engines drain
  /// failed queues in.
  struct FailEvent {
    std::uint64_t cycle = 0;
    std::uint32_t module = 0;
  };
  [[nodiscard]] const std::vector<FailEvent>& fail_events() const noexcept {
    return fail_events_;
  }

  [[nodiscard]] std::uint32_t modules() const noexcept {
    return static_cast<std::uint32_t>(fail_cycle_.size());
  }

 private:
  std::vector<std::uint64_t> fail_cycle_;           // per module; kNever = alive
  std::vector<std::uint32_t> redirect_;             // per color
  std::vector<std::uint32_t> dead_;                 // ascending module ids
  std::vector<FailEvent> fail_events_;              // (cycle, module) order
  std::vector<std::vector<Slowdown>> slow_by_module_;
};

}  // namespace pmtree::fault
