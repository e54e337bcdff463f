#include "pmtree/engine/arrival.hpp"

#include <algorithm>
#include <stdexcept>

namespace pmtree::engine {

ArrivalSchedule ArrivalSchedule::explicit_cycles(
    std::vector<std::uint64_t> cycles) {
  if (!std::is_sorted(cycles.begin(), cycles.end())) {
    throw std::invalid_argument(
        "explicit arrival cycles must be nondecreasing");
  }
  ArrivalSchedule schedule(Kind::kExplicit, 0, 0);
  schedule.cycles_ = std::move(cycles);
  return schedule;
}

std::string ArrivalSchedule::name() const {
  switch (kind_) {
    case Kind::kAllAtOnce:
      return "all-at-once";
    case Kind::kFixedRate:
      return "fixed-rate(period=" + std::to_string(period_) + ")";
    case Kind::kBursty:
      return "bursty(burst=" + std::to_string(burst_) +
             ",gap=" + std::to_string(period_) + ")";
    case Kind::kSerialized:
      return "serialized";
    case Kind::kExplicit:
      return "explicit(n=" + std::to_string(cycles_.size()) + ")";
  }
  return "unknown";
}

}  // namespace pmtree::engine
