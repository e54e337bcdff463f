// Event-driven CycleEngine core (DESIGN.md §8).
//
// The frozen seed loop (kept as the test oracle in
// tests/reference_engine.hpp) pays O(modules) every cycle: it scans one
// std::deque per module for service and records one depth sample per
// module into the histogram. This implementation keeps its semantics
// bit-identical — tests/test_engine_event_core.cpp holds it to the
// reference on randomized pairs — while restructuring the hot loop
// around three ideas:
//
//   * flat arena queues: per-module FIFOs are segments of one allocation,
//     sized from the admitted request count, with bump-pointer push/pop;
//   * an active-module worklist: service and depth observation visit only
//     backlogged modules (idle modules' zero-depth samples are counted
//     and recorded in one bulk histogram update at the end);
//   * cycle skipping: between arrivals the queues evolve deterministically
//     (one pop per module per cycle), so a whole span is retired in bulk
//     as long as no active module drains inside it. Full per-busy-cycle
//     depth sampling pins the engine to per-cycle stepping; strided/off
//     sampling (EngineOptions) unlocks the bulk path.
#include "pmtree/engine/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <span>

#include "pmtree/mem/arena.hpp"
#include "pmtree/util/simd.hpp"

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

  if (mem_nodes_touched != 0) {
    Json memory = Json::object();
    memory.set("nodes", Json(mem_nodes_touched));
    memory.set("bytes", Json(mem_bytes_touched));
    memory.set("checksum", Json(mem::detail::hex64(mem_checksum)));
    root.set("memory", std::move(memory));
  }
  return root;
}

namespace {

// Loads every access's payloads from the real-memory arenas and folds the
// traffic into the result. Observation only: it runs after the trajectory
// is fully decided, so results are bit-identical with the backend on/off.
void touch_workload(const mem::MemoryBackend& memory,
                    const Workload& workload, EngineResult& result) {
  mem::TouchStats stats;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    stats += memory.touch(workload[i]);
  }
  result.mem_nodes_touched = stats.nodes;
  result.mem_bytes_touched = stats.bytes;
  result.mem_checksum = stats.checksum;
}

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

// The degraded loop: per-cycle stepping (no bulk spans — failure and
// slowdown boundaries can land on any cycle) over the same flat arena,
// with three extra rules from fault/plan.hpp, applied in this per-cycle
// order so both engines agree bit for bit:
//
//   1. failure processing — every module whose fail cycle has arrived
//      drains its FIFO, in (cycle, module) order, onto its reroute target;
//   2. admission — requests colored to an already-dead module enqueue on
//      the target instead;
//   3. depth observation, then service — a module retires its head request
//      only when timeline.serves_at(m, t) says so; a backlogged module
//      skipped by a slowdown counts one stalled module-cycle.
//
// Reroute targets never fail (FaultTimeline draws them from the modules
// with no fail-stop), so a request moves at most once and the arena
// segment for module m is safely capped at its own routed load plus the
// full load of every module that reroutes onto it.
EngineResult run_faulted(const std::uint32_t modules,
                         std::span<const std::size_t> first,
                         std::span<const Color> colors,
                         const ArrivalSchedule& schedule,
                         const EngineOptions& options) {
  const fault::FaultTimeline timeline(*options.faults, modules);
  const std::size_t n = first.size() - 1;
  assert(n < std::numeric_limits<std::uint32_t>::max());

  EngineResult result;
  result.accesses = n;
  result.served.assign(modules, 0);
  result.queue_high_water.assign(modules, 0);
  result.records.resize(n);

  std::vector<std::size_t> cap(modules, 0);
  for (const Color c : colors) cap[c] += 1;
  // A target absorbs at most the full routed load of every module folding
  // onto it; a dead module keeps its own segment (requests sit there until
  // the drain) and, never being a target itself, its cap is still the pure
  // routed count when read here.
  for (const std::uint32_t d : timeline.dead_modules()) {
    cap[timeline.redirect(d)] += cap[d];
  }
  std::vector<std::size_t> qbase(modules + 1, 0);
  for (std::uint32_t m = 0; m < modules; ++m) qbase[m + 1] = qbase[m] + cap[m];
  std::vector<std::uint32_t> arena(qbase[modules]);
  std::vector<std::size_t> head(qbase.begin(), qbase.end() - 1);
  std::vector<std::size_t> tail = head;

  std::vector<std::uint32_t> active;
  active.reserve(modules);
  std::vector<std::uint32_t> outstanding(n, 0);

  const EngineOptions::DepthSampling sampling = options.sampling;
  const std::uint64_t stride =
      std::max<std::uint64_t>(options.sample_stride, 1);
  const bool per_cycle =
      sampling == EngineOptions::DepthSampling::kEveryBusyCycle;
  std::uint64_t zero_samples = 0;

  std::uint64_t t = 0;
  std::size_t next = 0;
  std::size_t done = 0;
  std::size_t in_flight = 0;

  const auto complete = [&](const AccessRecord& rec) {
    result.latency.record(rec.latency());
    result.completion_cycle = std::max(result.completion_cycle, rec.completion);
    done += 1;
  };

  const auto push = [&](std::uint32_t m, std::uint32_t id) {
    if (tail[m] == head[m]) active.push_back(m);
    arena[tail[m]] = id;
    tail[m] += 1;
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

  const std::vector<fault::FaultTimeline::FailEvent>& events =
      timeline.fail_events();
  std::size_t next_fail = 0;

  while (done < n) {
    // 1. Failure processing: drain newly-dead modules onto their targets.
    while (next_fail < events.size() && events[next_fail].cycle <= t) {
      const std::uint32_t d = events[next_fail].module;
      next_fail += 1;
      if (tail[d] == head[d]) continue;
      const std::uint32_t r = timeline.redirect(d);
      for (std::size_t h = head[d]; h < tail[d]; ++h) {
        push(r, arena[h]);
        result.rerouted_requests += 1;
      }
      head[d] = tail[d];
      for (std::size_t a = 0; a < active.size(); ++a) {
        if (active[a] == d) {
          active[a] = active.back();
          active.pop_back();
          break;
        }
      }
    }

    // 2. Admission, exactly as the healthy loop (redirect inside admit).
    if (schedule.closed_loop()) {
      while (next < n && done == next) {
        admit(next, t);
        next += 1;
      }
      if (in_flight == 0) {
        if (per_cycle ||
            (sampling == EngineOptions::DepthSampling::kStrided &&
             result.busy_cycles % stride == 0)) {
          zero_samples += modules;
        }
        result.busy_cycles += 1;
        break;
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

    // 3a. Depth observation (per-cycle stepping: a strided sample is due
    // exactly when the current busy ordinal hits the stride).
    if (per_cycle || (sampling == EngineOptions::DepthSampling::kStrided &&
                      result.busy_cycles % stride == 0)) {
      for (const std::uint32_t m : active) {
        result.queue_depth.record(tail[m] - head[m]);
      }
      zero_samples += modules - active.size();
    }

    // 3b. Service, gated per module by the fault timeline.
    for (std::size_t a = 0; a < active.size();) {
      const std::uint32_t m = active[a];
      if (!timeline.serves_at(m, t)) {
        result.stalled_cycles += 1;
        a += 1;
        continue;
      }
      const std::uint32_t id = arena[head[m]];
      head[m] += 1;
      AccessRecord& rec = result.records[id];
      rec.completion = std::max(rec.completion, t + 1);
      if (--outstanding[id] == 0) {
        complete(rec);
        in_flight -= 1;
      }
      result.served[m] += 1;
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
  return result;
}

// The healthy simulation core (see detail::run_resolved for the contract).
EngineResult run_healthy(const std::uint32_t modules,
                         std::span<const std::size_t> first,
                         std::span<const Color> colors,
                         const ArrivalSchedule& schedule,
                         const EngineOptions& options) {
  const std::size_t n = first.size() - 1;
  // Arena entries are 32-bit access ids; a workload that large could not
  // be materialized in memory anyway.
  assert(n < std::numeric_limits<std::uint32_t>::max());

  EngineResult result;
  result.accesses = n;
  result.served.assign(modules, 0);
  result.queue_high_water.assign(modules, 0);
  result.records.resize(n);

  // Open-loop, no depth sampling: the cycle loop collapses to a per-entry
  // recurrence. Each module is a unit-rate FIFO, so entry k of module m
  // (pushed at arrival a_k) is served at s_k = max(a_k, s_{k-1}) + 1 —
  // while m is backlogged its serve cycles are consecutive, and a fresh
  // push on an idle module starts at a_k + 1. Everything the general loop
  // produces is a closed form of those serve cycles:
  //   completion  = max over the access's entries' serve cycles;
  //   served[m]   = entries routed to m;
  //   high-water  = s_k - a_k (pending serve cycles at a push are exactly
  //                 a_k+1 .. s_k, so that difference IS the queue depth);
  //   busy_cycles = |union over accesses of [arrival+1, completion]| — a
  //                 cycle is busy iff some access is in flight, and the
  //                 intervals arrive in nondecreasing-start order, so the
  //                 union folds into one running interval.
  // The depth histogram stays empty (kOff records nothing), which is why
  // sampling modes keep the general loop below. O(total entries), no
  // arena, no per-cycle scans — this is the serve pipeline's drain path.
  if (!schedule.closed_loop() &&
      options.sampling == EngineOptions::DepthSampling::kOff) {
    std::vector<std::uint64_t> last_serve(modules, 0);
    std::uint64_t busy_lo = 0;
    std::uint64_t busy_hi = 0;
    bool busy_open = false;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t a = schedule.arrival_cycle(i);
      const std::size_t lo = first[i];
      const std::size_t hi = first[i + 1];
      AccessRecord& rec = result.records[i];
      rec.id = i;
      rec.requests = hi - lo;
      rec.arrival = a;
      result.requests += hi - lo;
      if (lo == hi) {
        rec.completion = a;
      } else {
        std::uint64_t comp = 0;
        for (std::size_t r = lo; r < hi; ++r) {
          const Color m = colors[r];
          const std::uint64_t s = std::max(a, last_serve[m]) + 1;
          last_serve[m] = s;
          result.served[m] += 1;
          result.queue_high_water[m] =
              std::max(result.queue_high_water[m], s - a);
          comp = std::max(comp, s);
        }
        rec.completion = comp;
        if (!busy_open) {
          busy_open = true;
          busy_lo = a + 1;
          busy_hi = comp;
        } else if (a + 1 > busy_hi) {
          result.busy_cycles += busy_hi - busy_lo + 1;
          busy_lo = a + 1;
          busy_hi = comp;
        } else {
          busy_hi = std::max(busy_hi, comp);
        }
      }
      result.latency.record(rec.latency());
      result.completion_cycle =
          std::max(result.completion_cycle, rec.completion);
    }
    if (busy_open) result.busy_cycles += busy_hi - busy_lo + 1;
    return result;
  }

  // Flat arena queues: module m's FIFO is arena[qbase[m], qbase[m+1]), a
  // segment sized to the exact number of requests the run routes to m —
  // the conflict histogram of the resolved colors (SIMD-accelerated; see
  // util/simd.hpp) — so push/pop are bump pointers that never wrap or
  // allocate: one allocation replaces per-module deques.
  std::vector<std::size_t> qbase(modules + 1, 0);
  if (colors.size() < std::numeric_limits<std::uint32_t>::max()) {
    std::vector<std::uint32_t> counts(modules);
    simd::conflict_histogram(colors.data(), colors.size(), counts.data(),
                             modules);
    for (std::uint32_t m = 0; m < modules; ++m) qbase[m + 1] = counts[m];
  } else {
    for (const Color c : colors) qbase[c + 1] += 1;
  }
  for (std::uint32_t m = 0; m < modules; ++m) qbase[m + 1] += qbase[m];
  std::vector<std::uint32_t> arena(colors.size());
  std::vector<std::size_t> head(qbase.begin(), qbase.end() - 1);
  std::vector<std::size_t> tail = head;

  // Worklist of modules with a non-empty queue. Every output is invariant
  // to the order modules are serviced in (see the bulk-service note
  // below), so drained modules are swap-removed in O(1).
  std::vector<std::uint32_t> active;
  active.reserve(modules);

  std::vector<std::uint32_t> outstanding(n, 0);

  const EngineOptions::DepthSampling sampling = options.sampling;
  const std::uint64_t stride =
      std::max<std::uint64_t>(options.sample_stride, 1);
  const bool per_cycle =
      sampling == EngineOptions::DepthSampling::kEveryBusyCycle;
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
      const Color m = colors[r];
      if (tail[m] == head[m]) active.push_back(m);
      arena[tail[m]] = static_cast<std::uint32_t>(i);
      tail[m] += 1;
      // Depth only grows on admission and the reference observes it after
      // the cycle's last push, so the per-push running max reproduces its
      // high-water marks without a per-cycle module scan.
      const std::uint64_t depth = tail[m] - head[m];
      result.queue_high_water[m] = std::max(result.queue_high_water[m], depth);
    }
  };

  while (done < n) {
    // Admission, exactly as the reference. Closed loop: one access in
    // flight at a time; open loop: everything whose arrival is due.
    if (schedule.closed_loop()) {
      while (next < n && done == next) {
        admit(next, t);
        next += 1;
      }
      if (in_flight == 0) {
        // Only reachable when the trailing accesses were all empty, so
        // done == n. The reference loop still observes one all-idle cycle
        // before exiting; reproduce its accounting bit for bit.
        if (per_cycle ||
            (sampling == EngineOptions::DepthSampling::kStrided &&
             result.busy_cycles % stride == 0)) {
          zero_samples += modules;
        }
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

    // Cycle-skip horizon: nothing external touches the queues before the
    // next arrival (closed-loop admission waits for a full drain), and
    // service is deterministic — one pop per active module per cycle —
    // so a span of `span` cycles can be retired in bulk as long as no
    // active module drains inside it (the min-depth bound). Full
    // per-busy-cycle sampling forces span == 1.
    std::uint64_t span = 1;
    if (!per_cycle) {
      std::uint64_t horizon = std::numeric_limits<std::uint64_t>::max();
      if (!schedule.closed_loop() && next < n) {
        // >= 1: every arrival due at t was admitted above.
        horizon = schedule.arrival_cycle(next) - t;
      }
      std::uint64_t min_depth = std::numeric_limits<std::uint64_t>::max();
      for (const std::uint32_t m : active) {
        min_depth = std::min(min_depth, tail[m] - head[m]);
      }
      span = std::min(horizon, min_depth);
    }

    // Depth observation for busy-cycle ordinals [b, b + span), after
    // admission and before service. No module drains inside the span, so
    // active depths fall by exactly 1 per cycle and every sampled multiset
    // is reconstructed exactly: the histogram is a function of (workload,
    // schedule, options), never of how the engine chose to step.
    if (per_cycle) {
      for (const std::uint32_t m : active) {
        result.queue_depth.record(tail[m] - head[m]);
      }
      zero_samples += modules - active.size();
    } else if (sampling == EngineOptions::DepthSampling::kStrided) {
      const std::uint64_t b = result.busy_cycles;
      for (std::uint64_t j = (b + stride - 1) / stride * stride; j < b + span;
           j += stride) {
        const std::uint64_t off = j - b;
        for (const std::uint32_t m : active) {
          result.queue_depth.record(tail[m] - head[m] - off);
        }
        zero_samples += modules - active.size();
      }
    }

    // Service: module m retires its first `span` queued requests at cycles
    // t+1 .. t+span. An access's completion is a running max over its
    // requests' serve cycles, so the order modules are processed in does
    // not matter — the last pop of an access always sees the full max.
    for (std::size_t a = 0; a < active.size();) {
      const std::uint32_t m = active[a];
      std::size_t h = head[m];
      for (std::uint64_t j = 1; j <= span; ++j, ++h) {
        const std::uint32_t id = arena[h];
        AccessRecord& rec = result.records[id];
        const std::uint64_t cycle = t + j;
        rec.completion = std::max(rec.completion, cycle);
        if (--outstanding[id] == 0) {
          complete(rec);
          in_flight -= 1;
        }
      }
      head[m] = h;
      result.served[m] += span;
      if (h == tail[m]) {
        active[a] = active.back();
        active.pop_back();
      } else {
        a += 1;
      }
    }
    result.busy_cycles += span;
    t += span;
  }

  if (zero_samples != 0) result.queue_depth.record(0, zero_samples);
  return result;
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
  if (options.memory != nullptr) {
    touch_workload(*options.memory, workload, result);
  }
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

EngineResult run_resolved(const std::uint32_t modules,
                          std::span<const std::size_t> first,
                          std::span<const Color> colors,
                          const ArrivalSchedule& schedule,
                          const EngineOptions& options) {
  if (options.faults != nullptr && !options.faults->empty()) {
    return run_faulted(modules, first, colors, schedule, options);
  }
  return run_healthy(modules, first, colors, schedule, options);
}

}  // namespace detail

}  // namespace pmtree::engine
