#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>

namespace e2e {

using pmtree::Json;
using pmtree::serve::FormedBatch;
using pmtree::serve::MutationRecord;
using pmtree::serve::RequestStatus;
using pmtree::serve::Response;

bool same_responses(const std::vector<Response>& a,
                    const std::vector<Response>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Response& x, const Response& y) {
                      return x.client == y.client && x.seq == y.seq &&
                             x.status == y.status &&
                             x.submit_cycle == y.submit_cycle &&
                             x.admitted_cycle == y.admitted_cycle &&
                             x.dispatch_cycle == y.dispatch_cycle &&
                             x.completion_cycle == y.completion_cycle &&
                             x.batch == y.batch && x.retries == y.retries;
                    });
}

bool same_batches(const std::vector<FormedBatch>& a,
                  const std::vector<FormedBatch>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const FormedBatch& x, const FormedBatch& y) {
                      return x.id == y.id && x.formed_cycle == y.formed_cycle &&
                             x.requested_nodes == y.requested_nodes &&
                             x.members == y.members && x.nodes == y.nodes;
                    });
}

bool same_mutations(const std::vector<MutationRecord>& a,
                    const std::vector<MutationRecord>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const MutationRecord& x, const MutationRecord& y) {
                      return x.batch == y.batch && x.client == y.client &&
                             x.seq == y.seq && x.kind == y.kind &&
                             x.target == y.target && x.payload == y.payload &&
                             x.status == y.status &&
                             x.applied_cycle == y.applied_cycle;
                    });
}

std::uint64_t distinct_lines(const pmtree::mem::MemoryBackend& memory,
                             std::span<const pmtree::Node> nodes,
                             std::vector<std::uintptr_t>& scratch) {
  scratch.clear();
  const std::uintptr_t stride = memory.stride_bytes();
  for (const pmtree::Node n : nodes) {
    const auto addr = reinterpret_cast<std::uintptr_t>(memory.payload(n));
    for (std::uintptr_t l = addr >> 6; l <= (addr + stride - 1) >> 6; ++l) {
      scratch.push_back(l);
    }
  }
  std::sort(scratch.begin(), scratch.end());
  return static_cast<std::uint64_t>(
      std::unique(scratch.begin(), scratch.end()) - scratch.begin());
}

void SimSummary::add(const std::vector<Response>& responses) {
  for (const Response& r : responses) {
    submitted += 1;
    final_cycle = std::max(final_cycle, r.completion_cycle);
    if (r.status == RequestStatus::kOk) {
      latencies.push_back(r.latency());
    } else {
      failed += 1;
    }
  }
}

void append_sim_metrics(SimSummary summary, Metrics& out) {
  std::vector<std::uint64_t>& lat = summary.latencies;
  std::sort(lat.begin(), lat.end());
  const auto beyond_p999 = static_cast<double>(lat.size()) -
                           std::ceil(0.999 * static_cast<double>(lat.size()));
  gate(beyond_p999 >= 10, "p99.9 keeps at least ten samples beyond it");
  out.push_back({"sim_latency_p50_cycles",
                 static_cast<double>(nearest_rank(lat, 0.5)), "cycles"});
  out.push_back({"sim_latency_p99_cycles",
                 static_cast<double>(nearest_rank(lat, 0.99)), "cycles"});
  out.push_back({"sim_latency_p999_cycles",
                 static_cast<double>(nearest_rank(lat, 0.999)), "cycles"});
  out.push_back({"sim_makespan_cycles",
                 static_cast<double>(summary.final_cycle), "cycles"});
  out.push_back({"failed_frac",
                 static_cast<double>(summary.failed) /
                     static_cast<double>(summary.submitted),
                 "ratio"});
}

void add_engine_counts(const std::vector<pmtree::engine::EngineResult>& runs,
                       LayerCounts& counts) {
  for (const pmtree::engine::EngineResult& r : runs) {
    counts.engine_requests += r.requests;
    counts.busy_cycles += r.busy_cycles;
    counts.load_imbalance = std::max(counts.load_imbalance, r.load_imbalance());
  }
}

namespace {

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

void append_layer_metrics(const LayerCounts& c, Metrics& out) {
  const auto count = [&](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };
  const auto wall = [&](const char* name, double ns) {
    out.push_back({name, c.timed ? ns : 0, "ns"});
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  count("serve.submit_ns", c.submit_ns, "ns");
  wall("serve.admission_ns", c.admission_ns);
  count("serve.admitted", d(c.admitted), "count");
  count("serve.blocked", d(c.blocked), "count");
  count("serve.shed", d(c.shed), "count");
  count("serve.expired", d(c.expired), "count");
  wall("serve.batch_form_ns", c.batch_form_ns);
  wall("serve.coalesce_ns", c.coalesce_ns);
  count("serve.batches", d(c.batches), "count");
  count("serve.batch_nodes_mean", ratio(d(c.batch_nodes), d(c.batches)),
        "nodes");
  count("serve.coalesced_frac",
        ratio(d(c.requested_nodes - c.batch_nodes), d(c.requested_nodes)),
        "ratio");
  wall("mapping.color_ns", c.color_ns);
  count("mapping.colors", d(c.colors), "count");
  wall("mapping.ns_per_color", ratio(c.color_ns, d(c.colors)));
  wall("engine.feed_ns", c.feed_ns);
  wall("engine.drain_ns", c.drain_ns);
  count("engine.requests", d(c.engine_requests), "count");
  count("engine.busy_cycles", d(c.busy_cycles), "cycles");
  wall("engine.ns_per_request",
       ratio(c.feed_ns + c.drain_ns, d(c.engine_requests)));
  count("engine.load_imbalance", c.load_imbalance, "ratio");
  wall("mem.touch_ns", c.touch_ns);
  count("mem.nodes", d(c.mem_nodes), "count");
  count("mem.bytes", d(c.mem_bytes), "bytes");
  count("mem.lines", d(c.mem_lines), "lines");
  count("mem.lines_per_batch", ratio(d(c.mem_lines), d(c.batches)), "lines");
  wall("mem.ns_per_line", ratio(c.touch_ns, d(c.mem_lines)));
  wall("dyn.apply_ns", c.apply_ns);
  count("dyn.applied", d(c.dyn_applied), "count");
  count("dyn.rejected", d(c.dyn_rejected), "count");
  count("dyn.nodes_colored", d(c.dyn_nodes_colored), "count");
  wall("serve.metrics_ns", c.metrics_ns);
  count("serve.retries", d(c.retries), "count");
  count("serve.rounds", d(c.rounds), "count");
  count("serve.ticks", d(c.ticks), "count");
  count("migration.epochs", d(c.migration_epochs), "count");
  count("migration.moves", d(c.migration_moves), "count");
  count("adaptive.switches", d(c.adaptive_switches), "count");
  count("fair.share_dev_max", c.share_dev_max, "ratio");
  wall("serve.unattributed_ns", c.unattributed_ns);
  out.push_back({"trace.overhead_frac", c.timed ? c.overhead_frac : 0,
                 "ratio"});
}

void append_arena_sweep_not_run(Metrics& out) {
  for (const char* size : {"l2half", "llchalf", "llc2x"}) {
    out.push_back({std::string("mem.") + size + ".ns_per_line", 0, "ns"});
    out.push_back({std::string("mem.") + size + ".lines_per_batch", 0,
                   "lines"});
  }
}

namespace {

/// Per-run stage counters: the difference of two cumulative snapshots.
struct Stages {
  double control = 0, resolve = 0, execute = 0, drain = 0, barrier = 0;
  double wall_s = 0;

  [[nodiscard]] double total() const {
    return control + resolve + execute + drain + barrier;
  }
};

double stage(const Json& stats, const char* name) {
  return static_cast<double>(stats.find("stage_ns")->find(name)->as_uint());
}

Stages diff(const PipelineSample& before, const PipelineSample& after) {
  Stages s;
  s.control = stage(after.stats, "control") - stage(before.stats, "control");
  s.resolve = stage(after.stats, "resolve") - stage(before.stats, "resolve");
  s.execute = stage(after.stats, "execute") - stage(before.stats, "execute");
  s.drain = stage(after.stats, "drain") - stage(before.stats, "drain");
  s.barrier = stage(after.stats, "barrier") - stage(before.stats, "barrier");
  s.wall_s = after.wall_s;
  return s;
}

struct PointResult {
  Stages median;
  double barrier_share = 0;
  double max_in_flight = 0;
};

PointResult measure_point(unsigned workers, double budget_s,
                          const PipelineFactory& make) {
  const std::function<PipelineSample()> run = make(workers);
  PipelineSample prev = run();  // first run only anchors the counters
  std::vector<Stages> runs;
  (void)repeat_for(budget_s, 3, 40, [&] {
    PipelineSample cur = run();
    runs.push_back(diff(prev, cur));
    prev = std::move(cur);
    return runs.back().wall_s;
  });
  const auto med = [&](double Stages::*f) {
    std::vector<double> v;
    for (const Stages& s : runs) v.push_back(s.*f);
    return median(v);
  };
  PointResult p;
  p.median.control = med(&Stages::control);
  p.median.resolve = med(&Stages::resolve);
  p.median.execute = med(&Stages::execute);
  p.median.drain = med(&Stages::drain);
  p.median.barrier = med(&Stages::barrier);
  p.median.wall_s = med(&Stages::wall_s);
  std::vector<double> shares;
  for (const Stages& s : runs) shares.push_back(ratio(s.barrier, s.total()));
  p.barrier_share = median(shares);
  p.max_in_flight =
      static_cast<double>(prev.stats.find("max_in_flight")->as_uint());
  return p;
}

}  // namespace

void sweep_pipeline(unsigned headline, double budget_s,
                    const PipelineFactory& make, Metrics& out, Json& detail) {
  std::vector<unsigned> points(std::begin(kSweepWorkers),
                               std::end(kSweepWorkers));
  if (std::find(points.begin(), points.end(), headline) == points.end()) {
    points.push_back(headline);
  }
  const double per_point = budget_s / static_cast<double>(points.size());
  Json table = Json::array();
  for (const unsigned w : points) {
    start_on_cpu(w);
    const PointResult p = measure_point(w, per_point, make);
    const Stages& s = p.median;
    if (w == headline) {
      out.push_back({"pipeline.control_ns", s.control, "ns"});
      out.push_back({"pipeline.resolve_ns", s.resolve, "ns"});
      out.push_back({"pipeline.execute_ns", s.execute, "ns"});
      out.push_back({"pipeline.drain_ns", s.drain, "ns"});
      out.push_back({"pipeline.barrier_ns", s.barrier, "ns"});
      out.push_back({"pipeline.barrier_share", p.barrier_share, "ratio"});
      out.push_back({"pipeline.max_in_flight", p.max_in_flight, "count"});
    }
    if (std::find(std::begin(kSweepWorkers), std::end(kSweepWorkers), w) !=
        std::end(kSweepWorkers)) {
      const std::string prefix = "pipeline.w" + std::to_string(w) + ".";
      out.push_back({prefix + "control_ns", s.control, "ns"});
      out.push_back({prefix + "resolve_ns", s.resolve, "ns"});
      out.push_back({prefix + "execute_ns", s.execute, "ns"});
      out.push_back({prefix + "drain_ns", s.drain, "ns"});
      out.push_back({prefix + "barrier_ns", s.barrier, "ns"});
      out.push_back({prefix + "barrier_share", p.barrier_share, "ratio"});
      out.push_back({prefix + "wall_ms", s.wall_s * 1e3, "ms"});
    }
    Json row = Json::object();
    row.set("workers", Json(std::uint64_t{w}));
    row.set("wall_ms", Json(s.wall_s * 1e3));
    row.set("control_ns", Json(s.control));
    row.set("resolve_ns", Json(s.resolve));
    row.set("execute_ns", Json(s.execute));
    row.set("drain_ns", Json(s.drain));
    row.set("barrier_ns", Json(s.barrier));
    row.set("barrier_share", Json(p.barrier_share));
    table.push_back(std::move(row));
  }
  detail.set("pipeline_sweep", std::move(table));
}

}  // namespace e2e
