#include "pmtree/engine/session.hpp"

#include <algorithm>
#include <stdexcept>

namespace pmtree::engine {

namespace {

bool depths(const EngineOptions& options) {
  return options.sampling == EngineOptions::DepthSampling::kEveryBusyCycle;
}

}  // namespace

EngineSession::EngineSession(const TreeMapping& mapping,
                             const EngineOptions& options)
    : mapping_(mapping),
      options_(options),
      recurrence_(mapping.num_modules(), depths(options)),
      result_(detail::empty_result(mapping.num_modules())) {}

const EngineResult& EngineSession::drain() {
  if (options_.faults != nullptr && !options_.faults->empty()) {
    // A fail-stop can drain an earlier request onto its reroute target
    // behind a later one, so a faulted session replays from cycle 0.
    result_ = detail::run_resolved(mapping_.num_modules(), first_, colors_,
                                   ArrivalSchedule::explicit_cycles(arrivals_),
                                   options_);
    return result_;
  }
  const std::size_t done = result_.accesses;
  for (std::size_t i = std::max<std::size_t>(done, 1); i < arrivals_.size();
       ++i) {
    if (arrivals_[i] < arrivals_[i - 1]) {
      throw std::invalid_argument(
          "EngineSession arrivals must be nondecreasing");
    }
  }
  // Room for the new records in one step, doubling, so that many small
  // drains still copy each record O(1) times.
  if (arrivals_.size() > result_.records.capacity()) {
    result_.records.reserve(
        std::max(arrivals_.size(), 2 * result_.records.capacity()));
  }
  const std::span<const Color> colors(colors_);
  for (std::size_t i = done; i < arrivals_.size(); ++i) {
    recurrence_.serve(colors.subspan(first_[i], first_[i + 1] - first_[i]),
                      arrivals_[i], result_);
  }
  recurrence_.finish(result_);
  return result_;
}

void EngineSession::clear() {
  first_.assign(1, 0);
  colors_.clear();
  arrivals_.clear();
  recurrence_ = detail::Recurrence(mapping_.num_modules(), depths(options_));
  result_ = detail::empty_result(mapping_.num_modules());
}

}  // namespace pmtree::engine
