// Forest: multi-tenant serving with per-tenant SLO isolation
// (DESIGN.md §13).
//
// Server (server.hpp) fronts ONE tree/mapping. The forest generalizes to
// N tenants — each a tree + mapping + template mix (DictionaryClient /
// RangeIndexClient instances, or raw Request streams) — sharing one pool
// of engine replicas. The system questions change from "what latency
// does a stream observe" to "who gets the capacity when everyone wants
// it": fairness and isolation, not single-tenant makespan, are the
// correctness criteria (Eyraud-Dubois et al.; Marchal et al.).
//
//   tenant 0 ─submit─▶┐                         ┌─▶ lanes[0] × EngineSession
//   tenant 1 ─submit─▶┤ canonical order ─▶ tick │      (tenant 0's mapping)
//      ...            │  per-tenant admission   ├─▶ lanes[1] × EngineSession
//   tenant N ─submit─▶┘  DRR batch formation ───┘      (tenant 1's mapping)
//
// Four mechanisms implement the isolation story:
//
//   * admission quotas — every tenant keeps its own AdmissionController
//     (its own queue bound + overflow policy) and the forest adds a
//     shared global bound on total pending work. Each tenant holds a
//     reserved share of the global pool (apportioned by DRR weight);
//     beyond its reserve a tenant may borrow only while total occupancy
//     is under the bound. Running out of the *shared* pool always
//     blocks, never sheds: a shed verdict is attributable to the
//     tenant's own quota alone.
//   * weighted-fair batching — a deficit round-robin scheduler
//     (fair.hpp) meters BatchFormer: per tick each backlogged tenant
//     accrues quantum*weight node-credits and cuts due batches while it
//     can afford their pre-dedup node cost, so a saturating tenant's
//     batch share converges to its weight and cannot starve the rest.
//   * per-tenant metrics — every tenant gets its own ServeMetrics
//     section (prefix "forest.t<i>") plus a forest-level aggregate and a
//     JSON rollup with per-tenant batch shares.
//   * capacity planning — plan_capacity() statically apportions the
//     replica pool into per-tenant engine lanes from declared rates;
//     tenant i's batch k executes on its lane k mod lanes[i]. Lane
//     ranges are disjoint, so a tenant's FaultPlan (TenantOptions::
//     engine.faults) degrades only that tenant's lanes and mapping.
//
// The determinism contract is Server's, extended with canonical tenant
// ordering: requests sort by (submit_cycle, tenant, client, seq); every
// per-tick phase visits tenants in ascending id; DRR accrues quanta in
// that same order. The control plane is the one Server runs — a Server is
// a one-tenant forest without DRR or pool — and is single-threaded; only
// lane execution parallelizes (any worker count is bit-identical —
// test_serve_forest drives ≥60 randomized multi-tenant configurations,
// with and without per-tenant fault plans, at 1/2/8 workers).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pmtree/engine/engine.hpp"
#include "pmtree/engine/metrics.hpp"
#include "pmtree/mapping/mapping.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/serve/fair.hpp"
#include "pmtree/serve/metrics.hpp"
#include "pmtree/serve/pipeline.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::serve {

/// Per-tenant configuration: the tenant's slot (SlotOptions, in
/// server.hpp; its `engine.faults` and epoch controllers reach this
/// tenant's lanes and mapping only) plus its name and its two fairness
/// dials, `rate` and `weight`.
struct TenantOptions : SlotOptions {
  /// Display name for metrics/reports; "" defaults to "t<id>".
  std::string name;
  /// Declared offered load (relative units), consumed by the static
  /// capacity planner: lane counts are apportioned by rate.
  double rate = 1.0;
  /// Deficit-round-robin weight (relative batch share under saturation).
  /// 0 behaves as 1. weight * ForestOptions::drr_quantum_nodes must fit
  /// 64 bits: add_tenant throws std::invalid_argument otherwise.
  std::uint64_t weight = 1;
};

struct ForestOptions {
  /// Admission tick period in engine cycles (0 behaves as 1; past
  /// kClockHorizon the constructor throws std::invalid_argument), shared
  /// by all tenants — the forest runs one control-plane clock.
  std::uint64_t tick_cycles = 4;
  /// Engine replica pool to divide among tenants (grown to >= 1 lane per
  /// tenant; see plan_capacity).
  std::uint32_t replicas = 1;
  /// Batch executor threads while `pipeline.workers` is 0 (0 = hardware
  /// concurrency). Affects wall-clock only; results are bit-identical at
  /// any count.
  unsigned workers = 1;
  /// Shared bound on total admitted-but-unbatched requests across all
  /// tenants; 0 disables the global cap. Each tenant holds a reserved
  /// share (apportioned by weight, at least 1 — the bound is grown to
  /// the tenant count if smaller); the rest is borrowable while total
  /// occupancy stays under the bound. Pool exhaustion blocks, never
  /// sheds.
  std::size_t global_queue_bound = 0;
  /// Node-credits a weight-1 tenant accrues per tick (0 behaves as 1).
  std::uint64_t drr_quantum_nodes = 32;
  /// Stage attribution (pipeline.hpp); same contract as
  /// ServerOptions::pipeline, faulted tenants included.
  PipelineOptions pipeline;
};

/// One tenant's view of a finished run: responses in canonical
/// (submit_cycle, client, seq) order, batches in dispatch order, and the
/// tenant's own metrics section.
struct TenantReport {
  std::string name;
  std::vector<Response> responses;
  std::vector<FormedBatch> batches;      ///< ids are tenant-local
  std::vector<engine::EngineResult> lanes;  ///< per assigned lane
  std::uint64_t served_nodes = 0;        ///< pre-dedup nodes dispatched
  /// Real-memory traffic over this tenant's cut batches; all-zero unless
  /// TenantOptions::memory was set.
  mem::TouchStats memory;
  Json metrics;                          ///< this tenant's ServeMetrics

  [[nodiscard]] std::uint64_t count(RequestStatus status) const noexcept;
};

/// Everything one Forest::run observed.
struct ForestReport {
  std::vector<TenantReport> tenants;
  CapacityPlan plan;
  std::uint64_t ticks = 0;
  std::uint64_t rounds = 0;
  std::uint64_t final_cycle = 0;
  /// Rollup: {"forest": aggregate summary, "tenants": [per-tenant rows
  /// with weight/lanes/reserve/batch_share + metrics], "plan": ...}.
  Json metrics;

  [[nodiscard]] std::uint64_t count(RequestStatus status) const noexcept;
  [[nodiscard]] std::uint64_t total_requests() const noexcept;

  /// Full report as JSON: the rollup plus per-tenant response tables.
  [[nodiscard]] Json to_json() const;
};

namespace detail {
class ControlPlane;
}  // namespace detail

class Forest {
 public:
  /// Throws std::invalid_argument for a tick_cycles past kClockHorizon.
  explicit Forest(ForestOptions options = {});
  ~Forest();

  /// Registers a tenant; returns its id (dense, in registration order).
  /// `mapping` must outlive the forest. The first run() or plan() fixes
  /// the capacity plan, so a later add_tenant throws std::logic_error;
  /// options the control plane cannot serve over `mapping` (see
  /// SlotOptions), and a weight whose DRR credit overflows 64 bits
  /// (DeficitRoundRobin::check), throw std::invalid_argument.
  std::uint32_t add_tenant(const TreeMapping& mapping,
                           TenantOptions options = {});

  /// Thread-safe MPSC submission to one tenant; callable concurrently
  /// from any number of client threads. (client, seq) must be unique per
  /// tenant per run. Throws std::out_of_range, in every build type and
  /// with nothing queued, for a tenant id >= tenant_count() and for a
  /// request with a node outside the tenant mapping's tree or a
  /// submit_cycle past kClockHorizon; the vector overload checks every
  /// request before it queues any.
  void submit(std::uint32_t tenant, Request request);
  void submit(std::uint32_t tenant, std::vector<Request> requests);

  /// Drains every submitted request to a terminal status and returns the
  /// full report. Quiesce first (no concurrent submit). May be called
  /// repeatedly; each run consumes the requests submitted since the
  /// previous one. Throws std::overflow_error, at every thread count,
  /// when the shared tick loop reaches a tick past UINT64_MAX -
  /// kClockHorizon (request.hpp), before anything is cut there; the run's
  /// requests are consumed.
  [[nodiscard]] ForestReport run();

  [[nodiscard]] const ForestOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] std::uint32_t tenant_count() const noexcept {
    return static_cast<std::uint32_t>(tenants_.size());
  }
  /// Throws std::out_of_range for an id >= tenant_count().
  [[nodiscard]] const TenantOptions& tenant_options(std::uint32_t id) const {
    return tenants_.at(id).options;
  }
  /// The static capacity plan (fixed once tenants are registered).
  [[nodiscard]] const CapacityPlan& plan();
  /// Registry holding forest.* and forest.t<i>.* instruments, cumulative
  /// across run() calls.
  [[nodiscard]] const engine::MetricsRegistry& registry() const noexcept {
    return registry_;
  }

 private:
  struct Tenant {
    const TreeMapping* mapping = nullptr;
    TenantOptions options;
  };

  void ensure_plan();

  ForestOptions options_;
  std::vector<Tenant> tenants_;
  CapacityPlan plan_;
  bool planned_ = false;
  engine::MetricsRegistry registry_;
  /// Inboxes, tick loop and batch executor (src/serve/control_plane.hpp);
  /// the tenants are its slots, the capacity plan's lanes its lanes.
  std::unique_ptr<detail::ControlPlane> plane_;
};

}  // namespace pmtree::serve
