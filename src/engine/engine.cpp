// Event-driven CycleEngine core (DESIGN.md §8).
//
// The frozen seed loop (kept as the test oracle in
// tests/reference_engine.hpp) pays O(modules) every cycle: it scans one
// std::deque per module for service and records one depth sample per
// module into the histogram. This implementation keeps its semantics
// bit-identical — test_engine_event_core and test_engine_faults hold it
// to the reference on randomized pairs — with two simulation functions,
// picked by detail::run_resolved from the fault plan alone:
//
//   * the recurrence, for fault-free runs on every schedule: every serve
//     cycle and every depth sample is a closed form of the arrivals, so
//     no cycle is stepped;
//   * the stepping loop, under a non-empty fault plan: flat arena queues
//     with bump-pointer push/pop and an active-module worklist, so a busy
//     cycle costs O(backlogged modules) and an idle gap costs one step.
#include "pmtree/engine/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <span>
#include <stdexcept>

namespace pmtree::engine {

std::uint64_t EngineResult::max_queue_depth() const noexcept {
  std::uint64_t peak = 0;
  for (const std::uint64_t d : queue_high_water) peak = std::max(peak, d);
  return peak;
}

std::uint64_t EngineResult::max_module_served() const noexcept {
  std::uint64_t peak = 0;
  for (const std::uint64_t s : served) peak = std::max(peak, s);
  return peak;
}

double EngineResult::load_imbalance() const noexcept {
  if (served.empty() || requests == 0) return 0.0;
  const double mean = static_cast<double>(requests) /
                      static_cast<double>(served.size());
  return static_cast<double>(max_module_served()) / mean;
}

Json EngineResult::to_json() const {
  Json root = Json::object();
  root.set("accesses", Json(accesses));
  root.set("requests", Json(requests));
  root.set("completion_cycle", Json(completion_cycle));
  root.set("busy_cycles", Json(busy_cycles));
  root.set("rerouted_requests", Json(rerouted_requests));
  root.set("stalled_cycles", Json(stalled_cycles));
  root.set("throughput", Json(throughput()));
  root.set("max_queue_depth", Json(max_queue_depth()));

  Json lat = Json::object();
  lat.set("p50", Json(latency.p50()));
  lat.set("p95", Json(latency.p95()));
  lat.set("p99", Json(latency.p99()));
  lat.set("max", Json(latency.max()));
  lat.set("mean", Json(latency.mean()));
  root.set("latency", std::move(lat));

  Json high_water = Json::array();
  for (const std::uint64_t d : queue_high_water) high_water.push_back(Json(d));
  root.set("queue_high_water", std::move(high_water));

  Json per_module = Json::array();
  for (const std::uint64_t s : served) per_module.push_back(Json(s));
  root.set("served", std::move(per_module));
  return root;
}

namespace {

void export_metrics(MetricsRegistry& metrics, const std::string& prefix,
                    const EngineResult& result) {
  metrics.counter(prefix + ".accesses").add(result.accesses);
  metrics.counter(prefix + ".requests").add(result.requests);
  metrics.counter(prefix + ".cycles").add(result.completion_cycle);
  metrics.counter(prefix + ".busy_cycles").add(result.busy_cycles);
  metrics.gauge(prefix + ".queue_high_water")
      .set(static_cast<std::int64_t>(result.max_queue_depth()));
  metrics.histogram(prefix + ".latency").merge(result.latency);
  metrics.histogram(prefix + ".queue_depth").merge(result.queue_depth);
}

// The stepping loop, for runs under a non-empty fault plan: one busy cycle
// per iteration, in the reference loop's order, so the two agree bit for
// bit:
//
//   1. failure drain — every module whose fail cycle has arrived hands its
//      FIFO, in (cycle, module) order, to its reroute target;
//   2. admission — requests colored to an already-dead module enqueue on
//      the target instead;
//   3. depth observation (kEveryBusyCycle only);
//   4. service — each backlogged module retires its head request, unless
//      timeline.serves_at(m, t) says it skips the cycle, which counts one
//      stalled module-cycle.
//
// Idle gaps between open-loop arrivals are jumped in one step.
void run_stepping(const std::uint32_t modules,
                  std::span<const std::size_t> first,
                  std::span<const Color> colors,
                  const ArrivalSchedule& schedule,
                  const fault::FaultTimeline& timeline, const bool per_cycle,
                  EngineResult& result) {
  const std::size_t n = first.size() - 1;
  // Arena entries are 32-bit access ids; a workload that large could not
  // be materialized in memory anyway.
  assert(n < std::numeric_limits<std::uint32_t>::max());

  // Flat arena queues: module m's FIFO is arena[qbase[m], qbase[m+1]), a
  // segment sized to every request that can ever be pushed onto m, so
  // push/pop are bump pointers that never wrap or allocate. That is the
  // per-module count of the resolved colors, plus each dead module's count
  // folded onto its reroute target: reroute targets never fail, so a
  // request moves at most once, and a dead module is never a target, so
  // its count is still its own routed load when it is folded.
  std::vector<std::size_t> qbase(modules + 1, 0);
  for (const Color c : colors) qbase[c + 1] += 1;
  for (const std::uint32_t d : timeline.dead_modules()) {
    qbase[timeline.redirect(d) + 1] += qbase[d + 1];
  }
  for (std::uint32_t m = 0; m < modules; ++m) qbase[m + 1] += qbase[m];
  std::vector<std::uint32_t> arena(qbase[modules]);
  std::vector<std::size_t> head(qbase.begin(), qbase.end() - 1);
  std::vector<std::size_t> tail = head;

  // Worklist of modules with a non-empty queue. Every pop of a cycle
  // completes at t + 1, so the order modules are serviced in changes no
  // output and drained modules are swap-removed in O(1).
  std::vector<std::uint32_t> active;
  active.reserve(modules);

  std::vector<std::uint32_t> outstanding(n, 0);

  // Idle modules' zero-depth samples are tallied here and recorded in one
  // bulk Histogram::record at the end, so observation stays O(backlogged
  // modules) per cycle while the histogram matches the reference exactly.
  std::uint64_t zero_samples = 0;

  std::uint64_t t = 0;         // current cycle
  std::size_t next = 0;        // next access to admit
  std::size_t done = 0;        // accesses completed
  std::size_t in_flight = 0;   // admitted but not completed

  const auto complete = [&](const AccessRecord& rec) {
    result.latency.record(rec.latency());
    result.completion_cycle = std::max(result.completion_cycle, rec.completion);
    done += 1;
  };

  const auto push = [&](std::uint32_t m, std::uint32_t id) {
    if (tail[m] == head[m]) active.push_back(m);
    arena[tail[m]] = id;
    tail[m] += 1;
    // Depth only grows on a push and the reference observes it after the
    // cycle's last push, so the per-push running max reproduces its
    // high-water marks without a per-cycle module scan.
    const std::uint64_t depth = tail[m] - head[m];
    result.queue_high_water[m] = std::max(result.queue_high_water[m], depth);
  };

  const auto admit = [&](std::size_t i, std::uint64_t cycle) {
    const std::size_t size = first[i + 1] - first[i];
    AccessRecord& rec = result.records[i];
    rec.id = i;
    rec.requests = size;
    rec.arrival = cycle;
    result.requests += size;
    outstanding[i] = static_cast<std::uint32_t>(size);
    if (size == 0) {
      // Nothing to fetch: completes the cycle it arrives, latency 0.
      rec.completion = cycle;
      complete(rec);
      return;
    }
    in_flight += 1;
    for (std::size_t r = first[i]; r < first[i + 1]; ++r) {
      Color m = colors[r];
      if (timeline.dead_at(m, cycle)) {
        m = timeline.redirect(m);
        result.rerouted_requests += 1;
      }
      push(m, static_cast<std::uint32_t>(i));
    }
  };

  const std::span<const fault::FaultTimeline::FailEvent> events =
      timeline.fail_events();
  std::size_t next_fail = 0;

  while (done < n) {
    // 1. Failure drain.
    for (; next_fail < events.size() && events[next_fail].cycle <= t;
         ++next_fail) {
      const std::uint32_t d = events[next_fail].module;
      if (tail[d] == head[d]) continue;
      const std::uint32_t r = timeline.redirect(d);
      for (std::size_t h = head[d]; h < tail[d]; ++h) push(r, arena[h]);
      result.rerouted_requests += tail[d] - head[d];
      head[d] = tail[d];
      *std::find(active.begin(), active.end(), d) = active.back();
      active.pop_back();
    }

    // 2. Admission. Closed loop: one access in flight at a time; open
    // loop: everything whose arrival is due.
    if (schedule.closed_loop()) {
      while (next < n && done == next) {
        admit(next, t);
        next += 1;
      }
      if (in_flight == 0) {
        // Only reachable when the trailing accesses were all empty, so
        // done == n. The reference loop still observes one all-idle cycle
        // before exiting; reproduce its accounting bit for bit.
        if (per_cycle) zero_samples += modules;
        result.busy_cycles += 1;
        break;
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

    // 3. Depth observation, after admission and before service.
    if (per_cycle) {
      for (const std::uint32_t m : active) {
        result.queue_depth.record(tail[m] - head[m]);
      }
      zero_samples += modules - active.size();
    }

    // 4. Service.
    for (std::size_t a = 0; a < active.size();) {
      const std::uint32_t m = active[a];
      if (!timeline.serves_at(m, t)) {
        result.stalled_cycles += 1;
        a += 1;
        continue;
      }
      const std::uint32_t id = arena[head[m]];
      head[m] += 1;
      result.served[m] += 1;
      if (--outstanding[id] == 0) {
        AccessRecord& rec = result.records[id];
        rec.completion = t + 1;
        complete(rec);
        in_flight -= 1;
      }
      if (head[m] == tail[m]) {
        active[a] = active.back();
        active.pop_back();
      } else {
        a += 1;
      }
    }
    result.busy_cycles += 1;
    t += 1;
  }

  if (zero_samples != 0) result.queue_depth.record(0, zero_samples);
}

}  // namespace

EngineResult CycleEngine::run(const Workload& workload,
                              const ArrivalSchedule& schedule,
                              const EngineOptions& options) const {
  // Resolve every access's colors once up front through the batch kernel —
  // one virtual call for the whole workload, and ColorMapping amortizes
  // its inheritance chase across it (see mapping/color.hpp). `first[i]`
  // slices the flat color array per access.
  const std::size_t n = workload.size();
  std::vector<Node> flat;
  std::vector<std::size_t> first(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Workload::Access& access = workload[i];
    flat.insert(flat.end(), access.begin(), access.end());
    first[i + 1] = flat.size();
  }
  std::vector<Color> colors(flat.size());
  mapping_.color_of_batch(flat, colors);

  EngineResult result = detail::run_resolved(mapping_.num_modules(), first,
                                             colors, schedule, options);
  if (metrics_ != nullptr) {
    export_metrics(*metrics_, prefix_, result);
    if (options.faults != nullptr && !options.faults->empty()) {
      metrics_->counter(prefix_ + ".rerouted_requests")
          .add(result.rerouted_requests);
      metrics_->counter(prefix_ + ".stalled_cycles").add(result.stalled_cycles);
    }
  }
  return result;
}

namespace detail {

namespace {

/// Records the depth run lo..hi in `runs`. lo <= hi + 1, and the empty run
/// lo == hi + 1 leaves `runs` as it was, so callers need no branch for it.
void add_run(std::vector<std::uint64_t>& runs, const std::uint64_t lo,
             const std::uint64_t hi) {
  if (hi + 2 > runs.size()) {
    runs.resize(std::max<std::uint64_t>(hi + 2, 2 * runs.size()));
  }
  runs[lo] += 1;
  runs[hi + 1] -= 1;
}

}  // namespace

EngineResult empty_result(const std::uint32_t modules) {
  EngineResult result;
  result.served.assign(modules, 0);
  result.queue_high_water.assign(modules, 0);
  return result;
}

Recurrence::Recurrence(const std::uint32_t modules, const bool depths)
    : depths_(depths),
      last_serve_(modules, 0),
      last_arrival_(depths ? modules : 0, 0) {}

// Entry k of module m, pushed at arrival a_k, is served at
// s_k = max(a_k, s_{k-1}) + 1: while m is backlogged its serve cycles are
// consecutive, and a push on an idle module starts at a_k + 1. What the
// stepping loop observes is a closed form of those serve cycles:
//   completion  = max over the access's entries' serve cycles;
//   served[m]   = entries routed to m;
//   high-water  = s_k - a_k (pending serve cycles at a push are exactly
//                 a_k+1 .. s_k, so that difference IS the queue depth);
//   busy_cycles = |union over accesses of [arrival+1, completion]| — a
//                 cycle is busy iff some access is in flight, and the
//                 intervals arrive in nondecreasing-start order, so the
//                 union folds into one running interval;
//   depths      = between two of its arrival cycles a < a', module m's
//                 depth at cycle t is s - t for the last serve cycle s
//                 scheduled by a, so its samples over [a, min(a', s))
//                 are the run of values s - a down to max(s - a', 0) + 1.
std::uint64_t Recurrence::serve(std::span<const Color> colors,
                                const std::uint64_t arrival,
                                EngineResult& result) {
  std::uint64_t completion = arrival;  // an empty access completes on arrival
  for (const Color m : colors) {
    std::uint64_t& last = last_serve_[m];
    if (depths_) {
      // m's first push at `arrival` closes the run its previous arrival
      // cycle opened. Every later push at `arrival` closes an empty run
      // (lo = last - arrival + 1 = hi + 1), as does a module never pushed.
      add_run(depth_runs_, (last > arrival ? last - arrival : 0) + 1,
              last - last_arrival_[m]);
      last_arrival_[m] = arrival;
    }
    last = std::max(arrival, last) + 1;
    result.served[m] += 1;
    result.queue_high_water[m] =
        std::max(result.queue_high_water[m], last - arrival);
    completion = std::max(completion, last);
  }
  result.records.push_back(
      AccessRecord{result.accesses, colors.size(), arrival, completion});
  result.accesses += 1;
  result.requests += colors.size();
  result.latency.record(completion - arrival);
  result.completion_cycle = std::max(result.completion_cycle, completion);
  if (!colors.empty()) {
    if (arrival + 1 > busy_hi_) {
      busy_closed_ += busy_hi_ + 1 - busy_lo_;
      busy_lo_ = arrival + 1;
      busy_hi_ = completion;
    } else {
      busy_hi_ = std::max(busy_hi_, completion);
    }
  }
  return completion;
}

void Recurrence::finish(EngineResult& result,
                        const std::uint64_t idle_cycles) const {
  result.busy_cycles = busy_closed_ + (busy_hi_ + 1 - busy_lo_) + idle_cycles;
  if (!depths_) return;
  // Each module's open run falls to depth 1 at its last serve (empty for a
  // module never pushed).
  std::vector<std::uint64_t> runs = depth_runs_;
  const std::size_t modules = last_serve_.size();
  for (std::size_t m = 0; m < modules; ++m) {
    add_run(runs, 1, last_serve_[m] - last_arrival_[m]);
  }
  Histogram depth;
  std::uint64_t samples = 0;
  for (std::size_t d = 1; d < runs.size(); ++d) {
    samples += runs[d];
    depth.record(d, samples);
  }
  // A backlogged module serves one request per cycle, so the nonzero
  // samples number `requests`; every other module-cycle of a busy cycle
  // samples depth 0.
  depth.record(0, modules * result.busy_cycles - result.requests);
  result.queue_depth = std::move(depth);
}

EngineResult run_resolved(const std::uint32_t modules,
                          std::span<const std::size_t> first,
                          std::span<const Color> colors,
                          const ArrivalSchedule& schedule,
                          const EngineOptions& options) {
  const std::size_t n = first.size() - 1;
  if (!schedule.covers(n)) {
    throw std::invalid_argument(
        "explicit arrival schedule has fewer cycles than accesses");
  }
  EngineResult result = empty_result(modules);
  const bool depths =
      options.sampling == EngineOptions::DepthSampling::kEveryBusyCycle;
  if (options.faults != nullptr && !options.faults->empty()) {
    result.accesses = n;
    result.records.resize(n);
    run_stepping(modules, first, colors, schedule,
                 fault::FaultTimeline(*options.faults, modules), depths,
                 result);
    return result;
  }
  Recurrence recurrence(modules, depths);
  result.records.reserve(n);
  const bool closed = schedule.closed_loop();
  std::uint64_t completion = 0;  // closed loop: access i arrives at i-1's
  for (std::size_t i = 0; i < n; ++i) {
    completion = recurrence.serve(
        colors.subspan(first[i], first[i + 1] - first[i]),
        closed ? completion : schedule.arrival_cycle(i), result);
  }
  // After admitting a closed loop's trailing empty access, the reference
  // loop observes one all-idle cycle before it exits.
  const bool trailing_idle = closed && n != 0 && first[n - 1] == first[n];
  recurrence.finish(result, trailing_idle ? 1 : 0);
  return result;
}

}  // namespace detail

}  // namespace pmtree::engine
