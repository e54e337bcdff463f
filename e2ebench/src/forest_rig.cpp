// hot_forest_overload: a Forest of three small-tree tenants sharing a
// global queue bound. `hot` takes an E23-style hot-spot Zipf stream above
// its capacity share with retries and skew migration; `adaptive` takes
// traffic that is hot under its LABEL-TREE base, so its AdaptiveSelector
// switches; `range` (weight 2) sends deadline-carrying level-run scans
// under kBlock. Every tenant's arena fits in L2.
//
// The forest control plane is not replayed: per-layer counts come from
// the ForestReport, stage times from the pipeline's own counters.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/forest.hpp"
#include "report.hpp"
#include "streams.hpp"

namespace e2e {

using namespace pmtree;
using namespace pmtree::serve;

namespace {

class ForestRig final : public Rig {
 public:
  ForestRig(std::uint64_t seed, const HostFacts& host)
      : seed_(seed), host_(host) {}

  void setup() override {
    oracle_.reset();
    pipeline_.reset();
    arenas_.clear();
    label_.reset();
    color_.reset();
    const CompleteBinaryTree tree(kLevels);
    color_ = std::make_unique<ColorMapping>(
        make_optimal_color_mapping(tree, kModules));
    label_ = std::make_unique<LabelTreeMapping>(tree, color_->num_modules());
    for (const TreeMapping* placement :
         {static_cast<const TreeMapping*>(color_.get()),
          static_cast<const TreeMapping*>(label_.get()),
          static_cast<const TreeMapping*>(color_.get())}) {
      arenas_.push_back(std::make_unique<mem::MemoryBackend>(*placement));
    }
    if (streams_.empty()) make_streams();
    oracle_ = build(0, /*warm=*/true);
    pipeline_ = build(pipeline_workers(host_), /*warm=*/true);
  }

  double timed_run(bool pipeline) override {
    Forest& forest = pipeline ? *pipeline_ : *oracle_;
    std::uint64_t submit_ns = 0;
    double wall = 0;
    ForestReport report = serve(forest, submit_ns, wall);
    check(report, pipeline);
    (pipeline ? saw_pipeline_ : saw_oracle_) = true;
    if (!reference_) reference_ = std::move(report);
    return wall;
  }

  [[nodiscard]] std::size_t requests() const override {
    std::size_t n = 0;
    for (const auto& s : streams_) n += s.size();
    return n;
  }

  void sim_metrics(Metrics& out) override {
    gate(saw_oracle_ && saw_pipeline_, "both paths ran");
    final_gates();
    SimSummary summary;
    for (const TenantReport& t : reference_->tenants) summary.add(t.responses);
    gate(summary.final_cycle == reference_->final_cycle,
         "final_cycle is the last resolution");
    append_sim_metrics(std::move(summary), out);
  }

  void traced(double seconds, Metrics& out, Json& detail) override;

  [[nodiscard]] Json describe() const override {
    Json j = Json::object();
    j.set("tree_levels", Json(std::uint64_t{kLevels}));
    j.set("modules", Json(std::uint64_t{color_->num_modules()}));
    j.set("replicas", Json(std::uint64_t{kReplicas}));
    j.set("global_queue_bound", Json(std::uint64_t{kGlobalBound}));
    Json tenants = Json::array();
    const char* names[] = {"hot", "adaptive", "range"};
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      Json t = Json::object();
      t.set("name", Json(names[i]));
      t.set("requests", Json(streams_[i].size()));
      t.set("arena_resident_bytes", Json(arenas_[i]->resident_bytes()));
      tenants.push_back(std::move(t));
    }
    j.set("tenants", std::move(tenants));
    j.set("pipeline_workers", Json(std::uint64_t{pipeline_workers(host_)}));
    return j;
  }

 private:
  static constexpr std::uint32_t kLevels = 12;
  static constexpr std::uint32_t kModules = 15;
  static constexpr std::uint32_t kReplicas = 4;
  static constexpr std::size_t kGlobalBound = 96;
  static constexpr std::uint32_t kClients = 32;
  static constexpr std::uint32_t kSubtreeLevel = 4;
  static constexpr std::size_t kHotSubtrees = 8;

  void make_streams() {
    const CompleteBinaryTree tree(kLevels);
    const auto hot = hot_leaves(*color_, kSubtreeLevel, kHotSubtrees, 6);
    gate(hot.size() == kHotSubtrees, "enough hot subtrees");
    streams_.push_back(hot_spot_stream(tree, hot, 144000, kClients,
                                       Arrivals{1, 64, 32}, seed_));
    const std::vector<Node> mono = monochrome_under(*label_);
    gate(mono.size() >= 8, "monochrome hot set under LABEL-TREE");
    streams_.push_back(monochrome_stream(tree, mono, 108000, kClients,
                                         Arrivals{4, 0, 0}, seed_));
    streams_.push_back(range_scan_stream(tree, 4, 72000, kClients,
                                         Arrivals{1, 32, 16}, 64, seed_));
  }

  [[nodiscard]] std::vector<TenantOptions> tenant_options() const {
    std::vector<TenantOptions> t(3);
    for (TenantOptions& o : t) {
      o.admission.queue_bound = 64;
      o.admission.overflow = OverflowPolicy::kShed;
      o.batch.max_batch_nodes = 96;
      o.batch.max_wait_cycles = 8;
    }
    t[0].name = "hot";
    t[0].retry.max_retries = 4;
    t[0].retry.attempt_timeout_cycles = 64;
    t[0].retry.backoff_base_cycles = 16;
    t[0].retry.backoff_cap_cycles = 128;
    t[0].migration.epoch_batches = 8;
    t[0].migration.top_k = kHotSubtrees;
    t[0].migration.subtree_level = kSubtreeLevel;
    t[0].migration.decay_shift = 1;
    t[0].migration.min_heat = 1;
    t[1].name = "adaptive";
    t[1].adaptive.epoch_batches = 8;
    t[1].adaptive.candidates = {color_.get(), label_.get()};
    t[2].name = "range";
    t[2].weight = 2;
    t[2].rate = 2.0;
    t[2].admission.queue_bound = 32;
    t[2].admission.overflow = OverflowPolicy::kBlock;
    for (std::size_t i = 0; i < t.size(); ++i) t[i].memory = arenas_[i].get();
    return t;
  }

  [[nodiscard]] const TreeMapping& base_mapping(std::size_t tenant) const {
    if (tenant == 1) return *label_;
    return *color_;
  }

  /// A forest with the three tenants; `warm` serves a prefix of every
  /// stream first (lazy color tables, pipeline worker pool).
  std::unique_ptr<Forest> build(unsigned pipeline_workers, bool warm) const {
    ForestOptions fopts;
    fopts.tick_cycles = 4;
    fopts.replicas = kReplicas;
    fopts.workers = 1;
    fopts.global_queue_bound = kGlobalBound;
    fopts.drr_quantum_nodes = 2 * kLevels;
    fopts.pipeline.workers = pipeline_workers;
    auto forest = std::make_unique<Forest>(fopts);
    const std::vector<TenantOptions> topts = tenant_options();
    for (std::size_t i = 0; i < topts.size(); ++i) {
      (void)forest->add_tenant(base_mapping(i), topts[i]);
    }
    if (warm) {
      for (std::uint32_t i = 0; i < streams_.size(); ++i) {
        const std::size_t n = streams_[i].size() / 16;
        for (std::size_t k = 0; k < n; ++k) forest->submit(i, streams_[i][k]);
      }
      (void)forest->run();
    }
    return forest;
  }

  ForestReport serve(Forest& forest, std::uint64_t& submit_ns,
                     double& wall_s) const {
    std::vector<std::vector<Request>> copy = streams_;
    const Clock::time_point t0 = Clock::now();
    for (std::uint32_t i = 0; i < copy.size(); ++i) {
      for (Request& r : copy[i]) forest.submit(i, std::move(r));
    }
    const Clock::time_point t1 = Clock::now();
    ForestReport report = forest.run();
    const Clock::time_point t2 = Clock::now();
    submit_ns = ns_between(t0, t1);
    wall_s = static_cast<double>(ns_between(t0, t2)) * 1e-9;
    return report;
  }

  void check(const ForestReport& got, bool pipeline) {
    const Json* forest = got.metrics.find("forest");
    const bool has_pipeline =
        forest != nullptr && forest->find("pipeline") != nullptr;
    gate(has_pipeline == pipeline,
         pipeline ? "pipeline run carries a pipeline section"
                  : "oracle run carries no pipeline section");
    gate(got.count(RequestStatus::kPending) == 0,
         "every request reaches a terminal status");
    gated_runs_ += 1;  // a failing gate below ends the run
    if (!reference_) return;
    const ForestReport& ref = *reference_;
    gate(got.tenants.size() == ref.tenants.size(), "tenant count matches");
    for (std::size_t i = 0; i < ref.tenants.size(); ++i) {
      const TenantReport& a = got.tenants[i];
      const TenantReport& b = ref.tenants[i];
      gate(same_responses(a.responses, b.responses), "responses match");
      gate(same_batches(a.batches, b.batches), "batches match");
      gate(a.memory == b.memory, "TouchStats match");
    }
    gate(got.final_cycle == ref.final_cycle, "final_cycle matches");
    gate(got.rounds == ref.rounds, "rounds match");
  }

  void final_gates() const {
    for (std::size_t i = 0; i < reference_->tenants.size(); ++i) {
      const TenantReport& t = reference_->tenants[i];
      std::uint64_t nodes = 0;
      std::uint64_t checksum = 0;
      for (const FormedBatch& b : t.batches) {
        nodes += b.nodes.size();
        for (const Node n : b.nodes) {
          checksum += arenas_[i]->expected_node_checksum(n);
        }
      }
      gate(t.memory.nodes == nodes, "arena touched every batch node");
      gate(t.memory.checksum == checksum,
           "arena checksum matches expected_node_checksum");
    }
  }

  std::uint64_t seed_;
  HostFacts host_;
  std::unique_ptr<ColorMapping> color_;
  std::unique_ptr<LabelTreeMapping> label_;
  std::vector<std::unique_ptr<mem::MemoryBackend>> arenas_;
  std::vector<std::vector<Request>> streams_;
  std::unique_ptr<Forest> oracle_;
  std::unique_ptr<Forest> pipeline_;

  std::optional<ForestReport> reference_;
  bool saw_oracle_ = false;
  bool saw_pipeline_ = false;
};

std::uint64_t uint_at(const Json& j, std::initializer_list<const char*> path) {
  const Json* at = &j;
  for (const char* key : path) {
    at = at->find(key);
    if (at == nullptr) return 0;
  }
  return at->as_uint();
}

void ForestRig::traced(double seconds, Metrics& out, Json& detail) {
  std::vector<double> submit_ns;
  (void)repeat_for(0.2 * seconds, 3, 40, [&] {
    std::uint64_t ns = 0;
    double wall = 0;
    const ForestReport report = serve(*oracle_, ns, wall);
    check(report, false);
    if (!reference_) reference_ = report;
    submit_ns.push_back(static_cast<double>(ns));
    return wall;
  });

  // Counts come from one run on a cold forest, whose cumulative metric
  // registry then holds exactly this run.
  std::uint64_t ns = 0;
  double wall = 0;
  const std::unique_ptr<Forest> cold = build(0, /*warm=*/false);
  const ForestReport report = serve(*cold, ns, wall);
  check(report, false);

  LayerCounts c;
  c.submit_ns = median(submit_ns);
  const Json& agg = *report.metrics.find("forest");
  c.admitted = uint_at(agg, {"counters", "admitted"});
  c.blocked = uint_at(agg, {"counters", "blocked"});
  c.shed = uint_at(agg, {"counters", "shed"});
  c.expired = uint_at(agg, {"counters", "expired"});
  std::vector<std::uintptr_t> scratch;
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    const TenantReport& t = report.tenants[i];
    for (const FormedBatch& b : t.batches) {
      c.batches += 1;
      c.batch_nodes += b.nodes.size();
      c.requested_nodes += b.requested_nodes;
      c.mem_lines += distinct_lines(*arenas_[i], b.nodes, scratch);
    }
    add_engine_counts(t.lanes, c);
    c.mem_nodes += t.memory.nodes;
    c.mem_bytes += t.memory.bytes;
    for (const Response& r : t.responses) c.retries += r.retries;
  }
  c.colors = c.batch_nodes;
  c.rounds = report.rounds;
  c.ticks = report.ticks;
  const Json& rows = *report.metrics.find("tenants");
  c.migration_epochs =
      uint_at(rows.items()[0], {"metrics", "migration", "epochs_planned"});
  c.migration_moves =
      uint_at(rows.items()[0], {"metrics", "migration", "subtrees_moved"});
  c.adaptive_switches =
      uint_at(rows.items()[1], {"metrics", "adaptive", "switches"});
  double weight_sum = 0;
  for (const Json& row : rows.items()) {
    weight_sum += row.find("weight")->as_number();
  }
  for (const Json& row : rows.items()) {
    const double want = row.find("weight")->as_number() / weight_sum;
    const double got = row.find("batch_share")->as_number();
    c.share_dev_max = std::max(c.share_dev_max, std::abs(got - want));
  }
  append_layer_metrics(c, out);

  sweep_pipeline(
      pipeline_workers(host_), 0.7 * seconds,
      [this](unsigned workers) {
        std::shared_ptr<Forest> forest = build(workers, /*warm=*/true);
        return std::function<PipelineSample()>([this, forest] {
          std::uint64_t submit = 0;
          double wall_s = 0;
          const ForestReport r = serve(*forest, submit, wall_s);
          check(r, true);
          return PipelineSample{
              wall_s, *r.metrics.find("forest")->find("pipeline")};
        });
      },
      out, detail);

  append_arena_sweep_not_run(out);
  Json not_timed = Json::array();
  for (const char* layer :
       {"serve.admission_ns", "serve.batch_form_ns", "serve.coalesce_ns",
        "mapping.color_ns", "engine.feed_ns", "engine.drain_ns",
        "mem.touch_ns", "serve.metrics_ns", "serve.unattributed_ns",
        "trace.overhead_frac", "mem.<size>.* (arena sweep)"}) {
    not_timed.push_back(Json(layer));
  }
  detail.set("not_timed", std::move(not_timed));
  Json not_run = Json::array();
  not_run.push_back(Json("dyn"));
  detail.set("layers_not_run", std::move(not_run));
}

}  // namespace

std::unique_ptr<Rig> make_hot_forest_overload(std::uint64_t seed,
                                              const HostFacts& host) {
  return std::make_unique<ForestRig>(seed, host);
}

}  // namespace e2e
