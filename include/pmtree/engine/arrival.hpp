// Arrival schedules: when each access of a workload enters the engine.
//
// The paper's two cost models are the endpoints of an arrival policy:
// all-at-once arrivals give the batch makespan (every request queued at
// cycle 0, busiest module drains last) and serialized arrivals give the
// per-access rounds of cost.hpp (one access in flight at a time). Open-loop fixed-rate and bursty schedules sit between the two
// and are where queueing behaviour — depth excursions, tail latency —
// actually emerges; they model a front-end admitting user requests at a
// target throughput. Explicit schedules carry one caller-chosen arrival
// cycle per access: the serve layer uses them to feed dynamically formed
// batches (each dispatched at its admission tick) through the engine.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pmtree::engine {

class ArrivalSchedule {
 public:
  enum class Kind : std::uint8_t {
    kAllAtOnce,   ///< every access arrives at cycle 0 (batch)
    kFixedRate,   ///< access i arrives at cycle i * period
    kBursty,      ///< bursts of `burst` accesses every `gap` cycles
    kSerialized,  ///< closed loop: access i arrives when i-1 completes
    kExplicit,    ///< access i arrives at a caller-supplied cycle
  };

  [[nodiscard]] static ArrivalSchedule all_at_once() {
    return ArrivalSchedule(Kind::kAllAtOnce, 0, 0);
  }
  /// `period` cycles between consecutive arrivals; period 0 degenerates
  /// to all-at-once.
  [[nodiscard]] static ArrivalSchedule fixed_rate(std::uint64_t period) {
    return ArrivalSchedule(Kind::kFixedRate, period, 0);
  }
  /// `burst` accesses (>= 1) arrive together every `gap` cycles. Degenerate
  /// parameters follow the conventions of the other factories: burst 0 is
  /// normalized to 1, and gap 0 degenerates to all-at-once (every burst is
  /// due at cycle 0) exactly as fixed_rate(0) does.
  [[nodiscard]] static ArrivalSchedule bursty(std::uint64_t burst,
                                              std::uint64_t gap) {
    return ArrivalSchedule(Kind::kBursty, gap, burst == 0 ? 1 : burst);
  }
  [[nodiscard]] static ArrivalSchedule serialized() {
    return ArrivalSchedule(Kind::kSerialized, 0, 0);
  }
  /// Access i arrives at cycles[i]. Preconditions: `cycles` is
  /// nondecreasing (the engine admits accesses in index order) and covers
  /// every access of the workload it is run with (cycles.size() >= n).
  [[nodiscard]] static ArrivalSchedule explicit_cycles(
      std::vector<std::uint64_t> cycles) {
    ArrivalSchedule schedule(Kind::kExplicit, 0, 0);
    schedule.cycles_ = std::move(cycles);
    for (std::size_t i = 1; i < schedule.cycles_.size(); ++i) {
      assert(schedule.cycles_[i - 1] <= schedule.cycles_[i]);
    }
    return schedule;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool closed_loop() const noexcept {
    return kind_ == Kind::kSerialized;
  }

  /// Arrival cycle of access `i` for open-loop kinds. Preconditions:
  /// !closed_loop() (serialized arrivals depend on completions), and for
  /// explicit schedules i < cycles.size().
  [[nodiscard]] std::uint64_t arrival_cycle(std::uint64_t i) const noexcept {
    switch (kind_) {
      case Kind::kAllAtOnce: return 0;
      case Kind::kFixedRate: return i * period_;
      case Kind::kBursty: return (i / burst_) * period_;
      case Kind::kExplicit: return cycles_[i];
      case Kind::kSerialized: break;
    }
    return 0;
  }

  [[nodiscard]] std::string name() const;

 private:
  ArrivalSchedule(Kind kind, std::uint64_t period, std::uint64_t burst)
      : kind_(kind), period_(period), burst_(burst) {}

  Kind kind_;
  std::uint64_t period_;  ///< fixed-rate period, or bursty inter-burst gap
  std::uint64_t burst_;   ///< bursty: accesses per burst
  std::vector<std::uint64_t> cycles_;  ///< explicit: per-access arrivals
};

}  // namespace pmtree::engine
