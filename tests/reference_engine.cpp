#include "reference_engine.hpp"

#include <algorithm>
#include <deque>

namespace pmtree::engine {

EngineResult ReferenceEngine::run(const Workload& workload,
                                  const ArrivalSchedule& schedule) const {
  const std::uint32_t modules = mapping_.num_modules();
  const std::size_t n = workload.size();

  EngineResult result;
  result.accesses = n;
  result.served.assign(modules, 0);
  result.queue_high_water.assign(modules, 0);
  result.records.resize(n);

  // FIFO of access ids per module; a request is either queued or already
  // served, so "all queues empty" means every admitted access completed.
  std::vector<std::deque<std::uint64_t>> queues(modules);
  std::vector<std::uint64_t> outstanding(n, 0);

  std::vector<Node> flat;
  std::vector<std::size_t> first(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Workload::Access& access = workload[i];
    flat.insert(flat.end(), access.begin(), access.end());
    first[i + 1] = flat.size();
  }
  std::vector<Color> colors(flat.size());
  mapping_.color_of_batch(flat, colors);

  std::uint64_t t = 0;         // current cycle
  std::size_t next = 0;        // next access to admit
  std::size_t done = 0;        // accesses completed
  std::size_t in_flight = 0;   // admitted but not completed

  const auto admit = [&](std::size_t i, std::uint64_t cycle) {
    const Workload::Access& access = workload[i];
    AccessRecord& rec = result.records[i];
    rec.id = i;
    rec.requests = access.size();
    rec.arrival = cycle;
    result.requests += access.size();
    outstanding[i] = access.size();
    if (access.empty()) {
      // Nothing to fetch: completes the cycle it arrives, latency 0.
      rec.completion = cycle;
      result.latency.record(0);
      done += 1;
      return;
    }
    in_flight += 1;
    for (std::size_t r = first[i]; r < first[i + 1]; ++r) {
      queues[colors[r]].push_back(i);
    }
  };

  while (done < n) {
    // Admission. Closed loop: one access in flight at a time; open loop:
    // everything whose scheduled arrival is due.
    if (schedule.closed_loop()) {
      while (next < n && done == next) {
        admit(next, t);
        next += 1;
      }
    } else {
      while (next < n && schedule.arrival_cycle(next) <= t) {
        admit(next, t);
        next += 1;
      }
      if (in_flight == 0) {
        if (done == n) break;  // trailing empty accesses completed above
        // Idle gap before the next arrival: skip it instead of burning
        // cycles one at a time (bursty schedules with long gaps).
        t = std::max(t, schedule.arrival_cycle(next));
        continue;
      }
    }

    // Observe queue depths after admission, before service: the per-cycle
    // backlog each module sees this cycle.
    for (std::uint32_t m = 0; m < modules; ++m) {
      const std::uint64_t depth = queues[m].size();
      result.queue_high_water[m] = std::max(result.queue_high_water[m], depth);
      result.queue_depth.record(depth);
    }
    result.busy_cycles += 1;

    // Service: each module retires the request at its queue head.
    for (std::uint32_t m = 0; m < modules; ++m) {
      if (queues[m].empty()) continue;
      const std::uint64_t id = queues[m].front();
      queues[m].pop_front();
      result.served[m] += 1;
      if (--outstanding[id] == 0) {
        AccessRecord& rec = result.records[id];
        rec.completion = t + 1;
        result.latency.record(rec.latency());
        done += 1;
        in_flight -= 1;
      }
    }
    t += 1;
  }

  for (const AccessRecord& rec : result.records) {
    result.completion_cycle = std::max(result.completion_cycle, rec.completion);
  }
  return result;
}

EngineResult ReferenceEngine::run(const Workload& workload,
                                  const ArrivalSchedule& schedule,
                                  const fault::FaultPlan& plan) const {
  const std::uint32_t modules = mapping_.num_modules();
  const fault::FaultTimeline timeline(plan, modules);
  const std::size_t n = workload.size();

  EngineResult result;
  result.accesses = n;
  result.served.assign(modules, 0);
  result.queue_high_water.assign(modules, 0);
  result.records.resize(n);

  std::vector<std::deque<std::uint64_t>> queues(modules);
  std::vector<std::uint64_t> outstanding(n, 0);

  std::vector<Node> flat;
  std::vector<std::size_t> first(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Workload::Access& access = workload[i];
    flat.insert(flat.end(), access.begin(), access.end());
    first[i + 1] = flat.size();
  }
  std::vector<Color> colors(flat.size());
  mapping_.color_of_batch(flat, colors);

  std::uint64_t t = 0;
  std::size_t next = 0;
  std::size_t done = 0;
  std::size_t in_flight = 0;

  const auto admit = [&](std::size_t i, std::uint64_t cycle) {
    const Workload::Access& access = workload[i];
    AccessRecord& rec = result.records[i];
    rec.id = i;
    rec.requests = access.size();
    rec.arrival = cycle;
    result.requests += access.size();
    outstanding[i] = access.size();
    if (access.empty()) {
      rec.completion = cycle;
      result.latency.record(0);
      done += 1;
      return;
    }
    in_flight += 1;
    for (std::size_t r = first[i]; r < first[i + 1]; ++r) {
      Color m = colors[r];
      if (timeline.dead_at(m, cycle)) {
        m = timeline.redirect(m);
        result.rerouted_requests += 1;
      }
      queues[m].push_back(i);
    }
  };

  const std::vector<fault::FaultTimeline::FailEvent>& events =
      timeline.fail_events();
  std::size_t next_fail = 0;

  while (done < n) {
    // Failure processing, before admission: every newly-dead module hands
    // its backlog, FIFO, to its reroute target (fault/plan.hpp).
    while (next_fail < events.size() && events[next_fail].cycle <= t) {
      const std::uint32_t d = events[next_fail].module;
      next_fail += 1;
      const std::uint32_t r = timeline.redirect(d);
      while (!queues[d].empty()) {
        queues[r].push_back(queues[d].front());
        queues[d].pop_front();
        result.rerouted_requests += 1;
      }
    }

    if (schedule.closed_loop()) {
      while (next < n && done == next) {
        admit(next, t);
        next += 1;
      }
    } else {
      while (next < n && schedule.arrival_cycle(next) <= t) {
        admit(next, t);
        next += 1;
      }
      if (in_flight == 0) {
        if (done == n) break;
        t = std::max(t, schedule.arrival_cycle(next));
        continue;
      }
    }

    for (std::uint32_t m = 0; m < modules; ++m) {
      const std::uint64_t depth = queues[m].size();
      result.queue_high_water[m] = std::max(result.queue_high_water[m], depth);
      result.queue_depth.record(depth);
    }
    result.busy_cycles += 1;

    // Service: one request per module per cycle, unless the timeline says
    // this module is skipping the cycle (dead queues were drained above).
    for (std::uint32_t m = 0; m < modules; ++m) {
      if (queues[m].empty()) continue;
      if (!timeline.serves_at(m, t)) {
        result.stalled_cycles += 1;
        continue;
      }
      const std::uint64_t id = queues[m].front();
      queues[m].pop_front();
      result.served[m] += 1;
      if (--outstanding[id] == 0) {
        AccessRecord& rec = result.records[id];
        rec.completion = t + 1;
        result.latency.record(rec.latency());
        done += 1;
        in_flight -= 1;
      }
    }
    t += 1;
  }

  for (const AccessRecord& rec : result.records) {
    result.completion_cycle = std::max(result.completion_cycle, rec.completion);
  }
  return result;
}

}  // namespace pmtree::engine
