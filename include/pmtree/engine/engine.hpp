// CycleEngine: the cycle-accurate parallel-memory queueing engine.
//
// The paper charges each access its busiest module's occupancy (cost.hpp
// rounds()), and a whole batch collapses into the same closed form: its
// makespan is the busiest module's total. Both are aggregates — they say
// nothing about *when* requests drain, how deep module queues get in
// between, or what latency an individual access observes under
// contention. CycleEngine produces exactly that trajectory: accesses arrive per an ArrivalSchedule, every request joins
// its module's FIFO queue, and each module retires one request per cycle
// (the paper's service model, now with time made explicit). An access
// completes when its last request is served; its latency is completion
// minus arrival.
//
// The two closed forms are recovered as special cases — the differential
// tests hold the engine to them:
//
//   * all-at-once arrivals:  completion_cycle == the batch makespan, i.e.
//                            rounds() of the whole workload as one access,
//                            and `served` == the requests routed to each
//                            module;
//   * serialized arrivals:   each access's service time == cost.hpp
//                            rounds(), and completion_cycle == the sum.
//
// The core is event-driven rather than scalar (DESIGN.md §8). A
// fault-free run, open or closed loop, takes a per-request recurrence that
// never steps a cycle: every serve cycle, and every queue-depth sample, is
// a closed form of the arrivals. A run under a non-empty FaultPlan takes
// one stepping loop whose module FIFOs live in one flat arena sized from
// the routed request counts and whose service touches only an
// active-module worklist. The frozen seed loop survives in
// tests/reference_engine.hpp, the semantics oracle both paths are
// differentially tested against.
//
// Everything the engine observes lands in an EngineResult and, when a
// MetricsRegistry is supplied, in named instruments under a caller-chosen
// prefix, ready for JSON export (see metrics.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pmtree/engine/arrival.hpp"
#include "pmtree/engine/histogram.hpp"
#include "pmtree/engine/metrics.hpp"
#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/mapping.hpp"
#include "pmtree/pms/workload.hpp"

namespace pmtree::mem {
class MemoryBackend;
}  // namespace pmtree::mem

namespace pmtree::engine {

/// Per-access trajectory record.
struct AccessRecord {
  std::uint64_t id = 0;
  std::uint64_t requests = 0;
  std::uint64_t arrival = 0;     ///< cycle the access entered the queues
  std::uint64_t completion = 0;  ///< cycle its last request finished

  [[nodiscard]] std::uint64_t latency() const noexcept {
    return completion - arrival;
  }
};

struct EngineResult {
  std::uint64_t accesses = 0;
  std::uint64_t requests = 0;
  std::uint64_t completion_cycle = 0;  ///< when the last access finished
  std::uint64_t busy_cycles = 0;       ///< cycles with >= 1 request in flight
  /// Requests enqueued on (or drained to) a reroute target because their
  /// own module was fail-stopped. Zero without a FaultPlan.
  std::uint64_t rerouted_requests = 0;
  /// Module-cycles where a backlogged module was kept from serving by a
  /// transient slowdown. Zero without a FaultPlan.
  std::uint64_t stalled_cycles = 0;
  /// Real-memory traffic (pmtree/mem/arena.hpp): node payloads / bytes
  /// actually loaded from the per-module arenas, and the order-invariant
  /// checksum of what was read. All zero without EngineOptions::memory —
  /// the backend observes the run, it never alters the trajectory.
  std::uint64_t mem_nodes_touched = 0;
  std::uint64_t mem_bytes_touched = 0;
  std::uint64_t mem_checksum = 0;
  std::vector<AccessRecord> records;   ///< one entry per access, in order
  std::vector<std::uint64_t> served;   ///< per-module requests served
  std::vector<std::uint64_t> queue_high_water;  ///< per-module depth peak
  Histogram latency;     ///< per-access latency distribution
  Histogram queue_depth; ///< per-module depth sampled every busy cycle

  /// Mean requests retired per busy cycle (<= modules).
  [[nodiscard]] double throughput() const noexcept {
    return busy_cycles == 0 ? 0.0
                            : static_cast<double>(requests) /
                                  static_cast<double>(busy_cycles);
  }

  /// Peak queue depth across all modules.
  [[nodiscard]] std::uint64_t max_queue_depth() const noexcept;

  /// Per-module heat view over the run: the hottest module's served
  /// count. The serve layer's skew-adaptive planner keys off this shape
  /// of imbalance (DESIGN.md §15).
  [[nodiscard]] std::uint64_t max_module_served() const noexcept;

  /// Load imbalance = hottest module / mean module load (1.0 = perfectly
  /// balanced; 0.0 when nothing was served). The makespan of a batch is
  /// governed by its hottest module, so this is the factor a remapping
  /// can hope to recover.
  [[nodiscard]] double load_imbalance() const noexcept;

  /// Full trajectory snapshot as JSON (scalars, percentiles, per-module
  /// arrays) — the payload bench_e16 writes as a BENCH_*.json file.
  [[nodiscard]] Json to_json() const;
};

/// Knobs for the event-driven core. Trajectory semantics — completion
/// cycles, latencies, served counts, high-water marks, busy cycles — are
/// identical under every setting. The fault plan alone picks the loop
/// (DESIGN.md §8); `sampling` only decides whether that loop fills
/// `EngineResult::queue_depth`.
struct EngineOptions {
  enum class DepthSampling : std::uint8_t {
    /// Sample every module's depth on every busy cycle, as the seed loop
    /// does.
    kEveryBusyCycle,
    /// No depth sampling; `EngineResult::queue_depth` stays empty.
    kOff,
  };

  DepthSampling sampling = DepthSampling::kEveryBusyCycle;
  /// Optional fault schedule (not owned; must outlive the run). nullptr or
  /// an empty plan leave the run bit-identical to a fault-free one; a
  /// non-empty plan runs the stepping loop with its fault steps
  /// (fail-stopped modules drain onto reroute targets, slowed modules
  /// stall — fault/plan.hpp).
  const fault::FaultPlan* faults = nullptr;
  /// Optional real-memory backend (not owned; must outlive the run).
  /// When set, every access's node payloads are actually loaded from the
  /// per-module arenas and accounted in EngineResult::mem_* — purely
  /// observational, so the trajectory is bit-identical with it on or off.
  const mem::MemoryBackend* memory = nullptr;
};

class CycleEngine {
 public:
  /// `metrics` (optional) receives instruments named `<prefix>.accesses`,
  /// `.requests`, `.cycles`, `.busy_cycles`, `.latency` (histogram),
  /// `.queue_depth` (histogram), `.queue_high_water` (gauge).
  explicit CycleEngine(const TreeMapping& mapping,
                       MetricsRegistry* metrics = nullptr,
                       std::string prefix = "engine")
      : mapping_(mapping), metrics_(metrics), prefix_(std::move(prefix)) {}

  /// Feeds `workload` through the module queues under `schedule` and
  /// drains them to completion with full per-busy-cycle depth sampling
  /// (EngineOptions{}).
  [[nodiscard]] EngineResult run(const Workload& workload,
                                 const ArrivalSchedule& schedule) const {
    return run(workload, schedule, EngineOptions{});
  }

  /// Same trajectory under caller-chosen observability cost.
  [[nodiscard]] EngineResult run(const Workload& workload,
                                 const ArrivalSchedule& schedule,
                                 const EngineOptions& options) const;

 private:
  const TreeMapping& mapping_;
  MetricsRegistry* metrics_;
  std::string prefix_;
};

namespace detail {

/// An EngineResult of zero accesses over `modules` modules: what every
/// run starts from.
[[nodiscard]] EngineResult empty_result(std::uint32_t modules);

/// The fault-free engine as a resumable recurrence (DESIGN.md §8). Each
/// module is a unit-rate FIFO, so a request pushed on module m at cycle a
/// is served at s = max(a, last serve on m) + 1, and every observable is a
/// closed form of those serve cycles. The state is the last serve and the
/// last arrival cycle per module, the open busy interval and a difference
/// array of queue-depth runs. serve() extends the trajectory by one
/// access; finish() writes what depends on where the run ends without
/// changing the state, so serving more accesses afterwards resumes the
/// same run.
class Recurrence {
 public:
  /// An idle engine over `modules` modules. `depths` keeps the queue-depth
  /// runs so finish() can fill `EngineResult::queue_depth`.
  Recurrence(std::uint32_t modules, bool depths);

  /// Serves one access whose requests route to `colors`, arriving at
  /// `arrival`, which must not precede the previous access's arrival.
  /// Appends its record to `result` (built by empty_result over the same
  /// module count, and extended only by this recurrence) and folds it into
  /// the result's counters and latency histogram. Returns its completion
  /// cycle.
  std::uint64_t serve(std::span<const Color> colors, std::uint64_t arrival,
                      EngineResult& result);

  /// Writes `result.busy_cycles` and, with depths kept,
  /// `result.queue_depth` as if the run ended after the last access
  /// served: the open busy interval and every module's open depth run are
  /// closed into `result`, not into the state. `idle_cycles` all-idle busy
  /// cycles are added on top (the closed loop's trailing empty access).
  void finish(EngineResult& result, std::uint64_t idle_cycles = 0) const;

 private:
  bool depths_;
  std::vector<std::uint64_t> last_serve_;    ///< per module
  std::vector<std::uint64_t> last_arrival_;  ///< per module, depths only
  /// Busy cycles of closed intervals, plus the open one [lo, hi], which
  /// starts out empty.
  std::uint64_t busy_closed_ = 0;
  std::uint64_t busy_lo_ = 1;
  std::uint64_t busy_hi_ = 0;
  /// Difference array over depth values of the closed depth runs: a run
  /// of the values lo..hi adds 1 at lo and subtracts 1 at hi + 1 (mod
  /// 2^64, so the prefix sums come out exact).
  std::vector<std::uint64_t> depth_runs_;
};

/// The simulation core over pre-resolved colors: access i's requests are
/// colors[first[i]] .. colors[first[i+1]-1] and route to those modules
/// (or, under a non-empty `options.faults`, to their reroute targets once
/// a module has failed — rerouting needs only the colors). The fault plan
/// alone picks the loop: fault-free runs, on every schedule, take the
/// Recurrence; a non-empty plan takes the stepping loop. Throws
/// std::invalid_argument when an explicit `schedule` has fewer cycles
/// than there are accesses. CycleEngine::run flattens + color-resolves and
/// calls this. EngineSession::drain (session.hpp) calls it to replay a
/// faulted lane, and runs a fault-free lane's Recurrence itself,
/// resuming it across drains.
[[nodiscard]] EngineResult run_resolved(std::uint32_t modules,
                                        std::span<const std::size_t> first,
                                        std::span<const Color> colors,
                                        const ArrivalSchedule& schedule,
                                        const EngineOptions& options);

}  // namespace detail

}  // namespace pmtree::engine
