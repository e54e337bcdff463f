// The single-Server workloads: big_tree_paths (COLOR on a tall tree with
// real-memory arenas larger than the LLC) and rw_dyn_churn (a Server bound
// to a DynamicTree + IncrementalColorer, no arenas).
//
// The traced run replays Server::run's oracle control plane through the
// library's public calls — AdmissionController, BatchFormer,
// TreeMapping::color_of_batch, EngineSession, MemoryBackend::touch,
// apply_batch_mutations, ServeMetrics — timing each call from here, and
// gates the replay bit-for-bit against Server::run.
#include <algorithm>
#include <functional>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/dyn/incremental.hpp"
#include "pmtree/engine/session.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/server.hpp"
#include "report.hpp"
#include "streams.hpp"

namespace e2e {

using namespace pmtree;
using namespace pmtree::serve;

namespace {

/// Wall time per layer of one replayed run.
struct LayerNs {
  Span admission;
  Span batch_form;
  Span coalesce;
  Span color;
  Span feed;
  Span drain;
  Span touch;
  Span apply;
  Span metrics;
};

constexpr Span LayerNs::*kLayers[] = {
    &LayerNs::admission, &LayerNs::batch_form, &LayerNs::coalesce,
    &LayerNs::color,     &LayerNs::feed,       &LayerNs::drain,
    &LayerNs::touch,     &LayerNs::apply,      &LayerNs::metrics};

struct Replay {
  std::vector<Response> responses;
  std::vector<FormedBatch> batches;
  std::vector<engine::EngineResult> replicas;
  std::vector<MutationRecord> mutations;
  mem::TouchStats memory;
  std::uint64_t final_cycle = 0;
  std::uint64_t ticks = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t nodes_colored = 0;
  LayerNs ns;
  std::uint64_t wall_ns = 0;
};

/// Node payload bytes (a multiple of 8, in [64, cap]) that make a tree of
/// `nodes` nodes occupy about `target` bytes: at least `target` when
/// `at_least`, otherwise at most.
std::uint32_t payload_for(std::uint64_t target, std::uint64_t nodes,
                          std::uint32_t cap, bool at_least) {
  const std::uint64_t per_node =
      at_least ? ((target + nodes - 1) / nodes + 7) / 8 * 8
               : target / nodes / 8 * 8;
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(per_node, 64, cap));
}

class ServerRig final : public Rig {
 public:
  enum class Kind { kBigTreePaths, kDynChurn };

  ServerRig(Kind kind, std::uint64_t seed, const HostFacts& host)
      : kind_(kind), host_(host) {
    if (kind_ == Kind::kBigTreePaths) {
      levels_ = 22;
      arrivals_ = Arrivals{6, 4096, 160};
      requests_ = paths_mix_stream(CompleteBinaryTree(levels_), kRequests,
                                   kClients, arrivals_, seed);
    } else {
      levels_ = 16;
      arrivals_ = Arrivals{4, 4096, 160};
      requests_ = churn_stream(levels_, kWriteLevels, kRequests, kClients,
                               arrivals_, seed);
    }
  }

  void setup() override {
    oracle_.clear();
    pipeline_.clear();
    arena_.reset();
    color_.reset();
    if (kind_ == Kind::kBigTreePaths) {
      const CompleteBinaryTree tree(levels_);
      color_ = std::make_unique<ColorMapping>(
          make_optimal_color_mapping(tree, kModules));
      const std::uint64_t target = 2 * host_.llc_bytes;
      mem::ArenaOptions arena;
      arena.payload_bytes =
          payload_for(target, tree.size(), kMaxPayload, /*at_least=*/true);
      arena_ = std::make_unique<mem::MemoryBackend>(*color_, arena);
    }
    build(oracle_, 0);
    build(pipeline_, pipeline_workers(host_));
  }

  double timed_run(bool pipeline) override {
    Path& path = pipeline ? pipeline_ : oracle_;
    Timing timing;
    ServeReport report = serve(path, timing);
    check(report, pipeline);
    (pipeline ? saw_pipeline_ : saw_oracle_) = true;
    if (!reference_) reference_ = std::move(report);
    return timing.total_s();
  }

  [[nodiscard]] std::size_t requests() const override {
    return requests_.size();
  }

  void sim_metrics(Metrics& out) override {
    gate(saw_oracle_ && saw_pipeline_, "both paths ran");
    final_gates();
    SimSummary summary;
    summary.add(reference_->responses);
    gate(summary.final_cycle == reference_->final_cycle,
         "final_cycle is the last resolution");
    append_sim_metrics(std::move(summary), out);
  }

  void traced(double seconds, Metrics& out, Json& detail) override;

  [[nodiscard]] Json describe() const override {
    Json j = Json::object();
    j.set("tree_levels", Json(std::uint64_t{levels_}));
    j.set("modules", Json(std::uint64_t{kModules}));
    j.set("replicas", Json(std::uint64_t{kReplicas}));
    j.set("requests", Json(requests_.size()));
    j.set("mean_gap_cycles", Json(arrivals_.mean_gap));
    j.set("burst_every", Json(std::uint64_t{arrivals_.burst_every}));
    j.set("burst_size", Json(std::uint64_t{arrivals_.burst_size}));
    j.set("pipeline_workers", Json(std::uint64_t{pipeline_workers(host_)}));
    if (arena_) {
      j.set("arena_payload_bytes",
            Json(std::uint64_t{arena_->payload_bytes()}));
      j.set("arena_resident_bytes", Json(arena_->resident_bytes()));
      j.set("arena_over_llc",
            Json(host_.llc_bytes == 0
                     ? 0.0
                     : static_cast<double>(arena_->resident_bytes()) /
                           static_cast<double>(host_.llc_bytes)));
    }
    return j;
  }

 private:
  static constexpr std::size_t kRequests = 60000;
  static constexpr std::uint32_t kModules = 31;
  static constexpr std::uint32_t kReplicas = 4;
  static constexpr std::uint32_t kClients = 64;
  static constexpr std::uint32_t kWriteLevels = 6;
  static constexpr std::uint32_t kMaxPayload = 1024;

  /// One execution path: its Server and, for rw_dyn_churn, the dynamic
  /// tree and colorer it mutates (re-created in place before every run).
  struct Path {
    std::optional<dyn::DynamicTree> tree;
    std::optional<dyn::IncrementalColorer> colorer;
    std::unique_ptr<Server> server;

    void clear() {
      server.reset();
      colorer.reset();
      tree.reset();
    }
  };

  struct Timing {
    std::uint64_t submit_ns = 0;
    std::uint64_t run_ns = 0;
    [[nodiscard]] double total_s() const {
      return static_cast<double>(submit_ns + run_ns) * 1e-9;
    }
  };

  [[nodiscard]] const TreeMapping& mapping_of(const Path& path) const {
    if (kind_ == Kind::kDynChurn) return *path.colorer;
    return *color_;
  }

  [[nodiscard]] ServerOptions options(unsigned pipeline_workers,
                                      Path& path) const {
    ServerOptions opts;
    opts.tick_cycles = 4;
    opts.replicas = kReplicas;
    opts.workers = 1;
    opts.admission.queue_bound = 128;
    opts.admission.overflow = OverflowPolicy::kShed;
    opts.batch.max_batch_nodes = 96;
    opts.batch.max_wait_cycles = 8;
    opts.pipeline.workers = pipeline_workers;
    if (kind_ == Kind::kBigTreePaths) {
      opts.engine.sampling = engine::EngineOptions::DepthSampling::kOff;
      opts.memory = arena_.get();
    } else {
      opts.dyn.tree = &*path.tree;
      opts.dyn.colorer = &*path.colorer;
    }
    return opts;
  }

  /// Fresh dynamic state, in place: the server keeps pointing at it.
  void reset(Path& path) const {
    if (kind_ != Kind::kDynChurn) return;
    path.tree.emplace(levels_);
    path.colorer.emplace(dyn::IncrementalColorer::color(
        CompleteBinaryTree(levels_), kModules - 1, 2));
  }

  /// Constructs the path's server and warms it up on a prefix of the
  /// stream (lazy color tables, pipeline worker pool).
  void build(Path& path, unsigned pipeline_workers) {
    reset(path);
    path.server = std::make_unique<Server>(mapping_of(path),
                                           options(pipeline_workers, path));
    const std::size_t warm = requests_.size() / 16;
    for (std::size_t i = 0; i < warm; ++i) path.server->submit(requests_[i]);
    (void)path.server->run();
  }

  /// One full run of the stream. Submission starts the wall clock.
  ServeReport serve(Path& path, Timing& timing) {
    reset(path);
    std::vector<Request> copy = requests_;
    const Clock::time_point t0 = Clock::now();
    for (Request& r : copy) path.server->submit(std::move(r));
    const Clock::time_point t1 = Clock::now();
    ServeReport report = path.server->run();
    const Clock::time_point t2 = Clock::now();
    timing.submit_ns = ns_between(t0, t1);
    timing.run_ns = ns_between(t1, t2);
    return report;
  }

  /// Gates one report against the reference run (the first run of
  /// either path): responses, batches, final_cycle, mutation log and
  /// arena traffic must match bit-for-bit, and a pipeline run must carry
  /// the pipeline section (no silent fallback to the tick loop).
  void check(const ServeReport& got, bool pipeline) {
    const bool has_pipeline = got.metrics.find("pipeline") != nullptr;
    gate(has_pipeline == pipeline,
         pipeline ? "pipeline run carries a pipeline section"
                  : "oracle run carries no pipeline section");
    gate(got.count(RequestStatus::kPending) == 0,
         "every request reaches a terminal status");
    gated_runs_ += 1;  // a failing gate below ends the run
    if (!reference_) return;
    const ServeReport& ref = *reference_;
    gate(same_responses(got.responses, ref.responses), "responses match");
    gate(same_batches(got.batches, ref.batches), "batches match");
    gate(got.final_cycle == ref.final_cycle, "final_cycle matches");
    gate(same_mutations(got.mutations, ref.mutations), "mutation log matches");
    gate(got.memory == ref.memory, "TouchStats match");
  }

  /// End-of-run gates on the reference report.
  void final_gates() const {
    const ServeReport& ref = *reference_;
    if (!arena_) return;
    std::uint64_t nodes = 0;
    std::uint64_t checksum = 0;
    for (const FormedBatch& b : ref.batches) {
      nodes += b.nodes.size();
      for (const Node n : b.nodes) {
        checksum += arena_->expected_node_checksum(n);
      }
    }
    gate(ref.memory.nodes == nodes, "arena touched every batch node");
    gate(ref.memory.checksum == checksum,
         "arena checksum matches expected_node_checksum");
  }

  Replay replay(Path& path);
  void sweep_arenas(double budget_s, Metrics& out, Json& detail);

  Kind kind_;
  HostFacts host_;
  std::uint32_t levels_ = 0;
  Arrivals arrivals_;
  std::vector<Request> requests_;

  std::unique_ptr<ColorMapping> color_;
  std::unique_ptr<mem::MemoryBackend> arena_;
  Path oracle_;
  Path pipeline_;

  std::optional<ServeReport> reference_;
  bool saw_oracle_ = false;
  bool saw_pipeline_ = false;
};

Replay ServerRig::replay(Path& path) {
  reset(path);
  const ServerOptions opts = options(0, path);
  const TreeMapping& mapping = mapping_of(path);
  const mem::MemoryBackend* memory = opts.memory;
  const bool dynamic = opts.dyn.enabled();
  std::vector<Request> requests = requests_;

  Replay out;
  LayerNs& ns = out.ns;
  const Clock::time_point start = Clock::now();

  // Canonical order, exactly as Server::run sorts the drained inboxes.
  std::stable_sort(requests.begin(), requests.end(),
                   [](const Request& a, const Request& b) {
                     if (a.submit_cycle != b.submit_cycle)
                       return a.submit_cycle < b.submit_cycle;
                     if (a.client != b.client) return a.client < b.client;
                     return a.seq < b.seq;
                   });
  const std::size_t n = requests.size();

  engine::MetricsRegistry registry;
  std::optional<ServeMetrics> metrics;
  timed(ns.metrics, [&] { metrics.emplace(registry); });
  out.responses.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Response& r = out.responses[i];
    r.client = requests[i].client;
    r.seq = requests[i].seq;
    r.submit_cycle = requests[i].submit_cycle;
  }
  timed(ns.metrics, [&] { metrics->on_submitted(n); });

  const std::uint64_t T = opts.tick_cycles;
  const std::uint32_t R = opts.replicas;
  AdmissionController admission(opts.admission);
  BatchFormer former(opts.batch);
  std::vector<engine::EngineSession> sessions;
  sessions.reserve(R);
  for (std::uint32_t r = 0; r < R; ++r) {
    sessions.emplace_back(mapping, opts.engine);
  }
  std::vector<char> mutation_applied(n, 0);
  std::vector<std::size_t> scratch;
  std::vector<Color> colors;

  std::size_t unresolved = n;
  const auto resolve = [&](std::size_t index, RequestStatus status,
                           std::uint64_t cycle) {
    out.responses[index].status = status;
    out.responses[index].completion_cycle = cycle;
    unresolved -= 1;
  };

  std::size_t next_intake = 0;
  std::uint64_t t = 0;
  while (unresolved > 0) {
    out.ticks += 1;
    scratch.clear();
    timed(ns.admission, [&] { admission.expire(t, scratch); });
    for (const std::size_t index : scratch) {
      resolve(index, RequestStatus::kExpired, t);
    }
    out.expired += scratch.size();
    timed(ns.metrics, [&] { metrics->on_expired(scratch.size()); });

    scratch.clear();
    timed(ns.admission, [&] { admission.promote(t, scratch); });
    timed(ns.metrics, [&] { metrics->on_promoted(scratch.size()); });
    for (const std::size_t index : scratch) {
      out.responses[index].admitted_cycle = t;
    }

    while (next_intake < n && requests[next_intake].submit_cycle <= t) {
      const std::size_t index = next_intake++;
      const auto decision = timed(ns.admission, [&] {
        return admission.offer(index, requests[index], t);
      });
      switch (decision) {
        case AdmissionController::Decision::kAdmitted:
          out.responses[index].admitted_cycle = t;
          out.admitted += 1;
          timed(ns.metrics, [&] { metrics->on_admitted(); });
          break;
        case AdmissionController::Decision::kBlocked:
          out.blocked += 1;
          timed(ns.metrics, [&] { metrics->on_blocked(); });
          break;
        case AdmissionController::Decision::kShedNow:
          resolve(index, RequestStatus::kShed, t);
          out.shed += 1;
          timed(ns.metrics, [&] { metrics->on_shed(); });
          break;
        case AdmissionController::Decision::kDeadOnArrival:
          resolve(index, RequestStatus::kExpired, t);
          out.expired += 1;
          timed(ns.metrics, [&] { metrics->on_expired(1); });
          break;
      }
    }

    while (timed(ns.batch_form, [&] { return former.due(t, admission); })) {
      FormedBatch batch = timed(
          ns.batch_form, [&] { return former.form_one_raw(t, admission); });
      batch.decomposition =
          timed(ns.coalesce, [&] { return BatchFormer::coalesce(batch.nodes); });
      for (const std::size_t index : batch.members) {
        out.responses[index].dispatch_cycle = t;
        out.responses[index].batch = batch.id;
      }
      unresolved -= batch.members.size();
      if (dynamic) {
        timed(ns.apply, [&] {
          apply_batch_mutations(batch, requests, opts.dyn, t,
                                mutation_applied, out.mutations);
        });
      }
      colors.resize(batch.nodes.size());
      timed(ns.color, [&] { mapping.color_of_batch(batch.nodes, colors); });
      timed(ns.feed, [&] { sessions[batch.id % R].feed_resolved(colors, t); });
      if (memory != nullptr) {
        out.memory += timed(ns.touch, [&] { return memory->touch(batch.nodes); });
      }
      timed(ns.metrics, [&] { metrics->on_batch(batch); });
      out.batches.push_back(std::move(batch));
    }

    timed(ns.metrics, [&] {
      metrics->on_tick(admission.pending_count(), admission.blocked_count());
    });

    if (admission.idle() && next_intake < n) {
      const std::uint64_t arrival = requests[next_intake].submit_cycle;
      const std::uint64_t next_tick = (arrival + T - 1) / T * T;
      t = next_tick > t ? next_tick : t + T;
    } else {
      t += T;
    }
  }

  out.replicas.resize(R);
  timed(ns.drain, [&] {
    for (std::uint32_t r = 0; r < R; ++r) out.replicas[r] = sessions[r].drain();
  });
  for (std::size_t b = 0; b < out.batches.size(); ++b) {
    const std::uint64_t completion =
        out.replicas[b % R].records[b / R].completion;
    for (const std::size_t index : out.batches[b].members) {
      out.responses[index].status = RequestStatus::kOk;
      out.responses[index].completion_cycle = completion;
    }
  }
  for (const Response& r : out.responses) {
    out.final_cycle = std::max(out.final_cycle, r.completion_cycle);
    if (r.status == RequestStatus::kOk) {
      timed(ns.metrics, [&] { metrics->on_completed(r); });
    }
  }
  timed(ns.metrics, [&] {
    for (const engine::EngineResult& res : out.replicas) {
      metrics->on_replica_faults(res.rerouted_requests, res.stalled_cycles);
    }
    if (memory != nullptr) metrics->set_memory(memory->stats(out.memory));
    if (dynamic) metrics->set_dyn(dyn_stats(opts.dyn, out.mutations));
    (void)metrics->summary();
  });
  out.wall_ns = ns_between(start, Clock::now());
  if (dynamic) out.nodes_colored = path.colorer->nodes_colored();
  return out;
}

void ServerRig::traced(double seconds, Metrics& out, Json& detail) {
  // ---- Untraced oracle: the wall the replayed layers must account for.
  std::vector<double> submit_ns;
  std::vector<double> run_ns;
  (void)repeat_for(0.15 * seconds, 3, 40, [&] {
    Timing timing;
    const ServeReport report = serve(oracle_, timing);
    check(report, false);
    if (!reference_) reference_ = report;
    submit_ns.push_back(static_cast<double>(timing.submit_ns));
    run_ns.push_back(static_cast<double>(timing.run_ns));
    return timing.total_s();
  });
  const double untraced_run_ns = median(run_ns);

  // ---- Replay: per-layer wall time of the oracle control plane. -------
  Path replay_path;
  std::vector<LayerNs> layers;
  std::vector<double> replay_wall;
  Replay last;
  (void)repeat_for(0.25 * seconds, 3, 40, [&] {
    Replay r = replay(replay_path);
    const ServeReport& ref = *reference_;
    gate(same_responses(r.responses, ref.responses),
         "replay responses match Server::run");
    gate(same_batches(r.batches, ref.batches), "replay batches match");
    gate(r.final_cycle == ref.final_cycle, "replay final_cycle matches");
    gate(r.ticks == ref.ticks, "replay ticks match");
    gate(same_mutations(r.mutations, ref.mutations),
         "replay mutation log matches");
    gate(r.memory == ref.memory, "replay TouchStats match");
    gated_runs_ += 1;
    layers.push_back(r.ns);
    replay_wall.push_back(static_cast<double>(r.wall_ns));
    last = std::move(r);
    return static_cast<double>(last.wall_ns);
  });
  // Layer self time: each span minus what timing it cost, median over
  // the replays.
  const double overhead = span_overhead_ns();
  detail.set("span_overhead_ns", Json(overhead));
  const auto self_ns = [&](Span LayerNs::*layer) {
    std::vector<double> v;
    for (const LayerNs& l : layers) {
      const Span& span = l.*layer;
      v.push_back(static_cast<double>(span.ns) -
                  overhead * static_cast<double>(span.calls));
    }
    return median(v);
  };
  double attributed = 0;
  for (Span LayerNs::*layer : kLayers) attributed += self_ns(layer);

  // ---- Counts, all from the replay (bit-identical to Server::run). ----
  LayerCounts counts;
  counts.submit_ns = median(submit_ns);
  counts.admitted = last.admitted;
  counts.blocked = last.blocked;
  counts.shed = last.shed;
  counts.expired = last.expired;
  counts.batches = last.batches.size();
  for (const FormedBatch& b : last.batches) {
    counts.batch_nodes += b.nodes.size();
    counts.requested_nodes += b.requested_nodes;
  }
  counts.colors = counts.batch_nodes;
  add_engine_counts(last.replicas, counts);
  counts.mem_nodes = last.memory.nodes;
  counts.mem_bytes = last.memory.bytes;
  if (arena_) {
    std::vector<std::uintptr_t> scratch;
    for (const FormedBatch& b : last.batches) {
      counts.mem_lines += distinct_lines(*arena_, b.nodes, scratch);
    }
  }
  for (const MutationRecord& m : last.mutations) {
    if (m.status == dyn::DynStatus::kOk) {
      counts.dyn_applied += 1;
    } else if (m.status != dyn::DynStatus::kDuplicate) {
      counts.dyn_rejected += 1;
    }
  }
  counts.dyn_nodes_colored = last.nodes_colored;
  for (const Response& r : last.responses) counts.retries += r.retries;
  counts.rounds = reference_->rounds;
  counts.ticks = last.ticks;

  counts.timed = true;
  counts.admission_ns = self_ns(&LayerNs::admission);
  counts.batch_form_ns = self_ns(&LayerNs::batch_form);
  counts.coalesce_ns = self_ns(&LayerNs::coalesce);
  counts.color_ns = self_ns(&LayerNs::color);
  counts.feed_ns = self_ns(&LayerNs::feed);
  counts.drain_ns = self_ns(&LayerNs::drain);
  counts.touch_ns = self_ns(&LayerNs::touch);
  counts.apply_ns = self_ns(&LayerNs::apply);
  counts.metrics_ns = self_ns(&LayerNs::metrics);
  counts.unattributed_ns = untraced_run_ns - attributed;
  counts.overhead_frac = median(replay_wall) / untraced_run_ns - 1.0;
  append_layer_metrics(counts, out);

  // ---- Pipeline stage counters at each worker count. ------------------
  const double sweep_budget =
      (kind_ == Kind::kBigTreePaths ? 0.4 : 0.6) * seconds;
  sweep_pipeline(
      pipeline_workers(host_), sweep_budget,
      [&](unsigned workers) {
        auto path = std::make_shared<Path>();
        build(*path, workers);
        return std::function<PipelineSample()>([this, path] {
          Timing timing;
          const ServeReport report = serve(*path, timing);
          check(report, true);
          return PipelineSample{timing.total_s(),
                                *report.metrics.find("pipeline")};
        });
      },
      out, detail);

  if (kind_ == Kind::kBigTreePaths) {
    sweep_arenas(0.2 * seconds, out, detail);
  } else {
    append_arena_sweep_not_run(out);
    Json skipped = Json::array();
    skipped.push_back(Json("mem (no arenas on this workload)"));
    detail.set("layers_not_run", std::move(skipped));
  }
}

/// Replays the reference run's batch node sets as pure arena touches
/// against arenas of three working-set sizes. Smaller arenas hold a
/// shallower COLOR tree; a batch node below its last level is read at its
/// ancestor on that level (a projection of the same stream), deduplicated
/// per batch.
void ServerRig::sweep_arenas(double budget_s, Metrics& out, Json& detail) {
  struct Point {
    const char* name;
    std::uint64_t target;
  };
  const Point points[] = {{"l2half", host_.l2_bytes / 2},
                          {"llchalf", host_.llc_bytes / 2},
                          {"llc2x", 2 * host_.llc_bytes}};
  Json table = Json::array();
  for (const Point& p : points) {
    // The deepest tree whose 64-byte-payload arena fits the target.
    std::uint32_t levels = 1;
    while (levels < levels_ &&
           CompleteBinaryTree(levels + 1).size() * 64 <= p.target) {
      ++levels;
    }
    std::unique_ptr<ColorMapping> mapping;
    std::unique_ptr<mem::MemoryBackend> owned;
    const mem::MemoryBackend* arena = arena_.get();
    if (levels < levels_) {
      const CompleteBinaryTree tree(levels);
      mapping = std::make_unique<ColorMapping>(
          make_optimal_color_mapping(tree, kModules));
      mem::ArenaOptions options;
      options.payload_bytes =
          payload_for(p.target, tree.size(), kMaxPayload, /*at_least=*/false);
      owned = std::make_unique<mem::MemoryBackend>(*mapping, options);
      arena = owned.get();
    }
    std::vector<std::vector<Node>> sets;
    std::uint64_t lines = 0;
    std::vector<std::uintptr_t> scratch;
    for (const FormedBatch& b : reference_->batches) {
      std::vector<Node> nodes;
      nodes.reserve(b.nodes.size());
      for (const Node n : b.nodes) {
        nodes.push_back(n.level < levels ? n
                                         : ancestor(n, n.level - (levels - 1)));
      }
      std::sort(nodes.begin(), nodes.end());
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      lines += distinct_lines(*arena, nodes, scratch);
      sets.push_back(std::move(nodes));
    }
    std::uint64_t sink = 0;
    const std::vector<double> walls =
        repeat_for(budget_s / 3, 3, 50, [&] {
          const Clock::time_point t0 = Clock::now();
          for (const std::vector<Node>& s : sets) {
            sink += arena->touch(s).checksum;
          }
          return static_cast<double>(ns_between(t0, Clock::now()));
        });
    const double ns = median(walls);
    const double batches = static_cast<double>(sets.size());
    const std::string prefix = std::string("mem.") + p.name;
    out.push_back({prefix + ".ns_per_line", ns / static_cast<double>(lines),
                   "ns"});
    out.push_back({prefix + ".lines_per_batch",
                   static_cast<double>(lines) / batches, "lines"});
    Json row = Json::object();
    row.set("point", Json(p.name));
    row.set("target_bytes", Json(p.target));
    row.set("arena_levels", Json(std::uint64_t{levels}));
    row.set("payload_bytes", Json(std::uint64_t{arena->payload_bytes()}));
    row.set("resident_bytes", Json(arena->resident_bytes()));
    row.set("touch_ns", Json(ns));
    row.set("lines", Json(lines));
    row.set("checksum_sink", Json(sink & 0xFFFF));
    table.push_back(std::move(row));
  }
  detail.set("arena_sweep", std::move(table));
}

}  // namespace

std::unique_ptr<Rig> make_big_tree_paths(std::uint64_t seed,
                                         const HostFacts& host) {
  return std::make_unique<ServerRig>(ServerRig::Kind::kBigTreePaths, seed,
                                     host);
}

std::unique_ptr<Rig> make_rw_dyn_churn(std::uint64_t seed,
                                       const HostFacts& host) {
  return std::make_unique<ServerRig>(ServerRig::Kind::kDynChurn, seed, host);
}

}  // namespace e2e
