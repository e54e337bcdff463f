#include "pmtree/serve/forest.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "control_plane.hpp"

namespace pmtree::serve {

std::uint64_t TenantReport::count(RequestStatus status) const noexcept {
  return detail::count_status(responses, status);
}

std::uint64_t ForestReport::count(RequestStatus status) const noexcept {
  std::uint64_t n = 0;
  for (const TenantReport& t : tenants) n += t.count(status);
  return n;
}

std::uint64_t ForestReport::total_requests() const noexcept {
  std::uint64_t n = 0;
  for (const TenantReport& t : tenants) n += t.responses.size();
  return n;
}

Json ForestReport::to_json() const {
  Json j = Json::object();
  j.set("tenant_count", Json(tenants.size()));
  j.set("requests", Json(total_requests()));
  j.set("ok", Json(count(RequestStatus::kOk)));
  j.set("shed", Json(count(RequestStatus::kShed)));
  j.set("expired", Json(count(RequestStatus::kExpired)));
  j.set("ticks", Json(ticks));
  j.set("rounds", Json(rounds));
  j.set("final_cycle", Json(final_cycle));
  j.set("metrics", metrics);

  Json jtenants = Json::array();
  for (const TenantReport& t : tenants) {
    Json row = Json::object();
    row.set("name", Json(t.name));
    row.set("requests", Json(t.responses.size()));
    row.set("ok", Json(t.count(RequestStatus::kOk)));
    row.set("shed", Json(t.count(RequestStatus::kShed)));
    row.set("expired", Json(t.count(RequestStatus::kExpired)));
    row.set("batches", Json(t.batches.size()));
    row.set("served_nodes", Json(t.served_nodes));
    if (t.memory.nodes != 0) row.set("memory", t.memory.to_json());
    row.set("responses", detail::response_rows(t.responses));
    jtenants.push_back(std::move(row));
  }
  j.set("tenants", std::move(jtenants));
  return j;
}

Forest::Forest(ForestOptions options)
    : options_(options), plane_(std::make_unique<detail::ControlPlane>()) {
  options_.tick_cycles = detail::checked_tick(options_.tick_cycles);
  if (options_.replicas == 0) options_.replicas = 1;
  if (options_.drr_quantum_nodes == 0) options_.drr_quantum_nodes = 1;
}

Forest::~Forest() = default;

std::uint32_t Forest::add_tenant(const TreeMapping& mapping,
                                 TenantOptions options) {
  if (planned_) {
    throw std::logic_error(
        "Forest::add_tenant after the capacity plan was fixed by run() or "
        "plan()");
  }
  detail::reject_unsupported(mapping, options, {});
  DeficitRoundRobin::check(options.weight, options_.drr_quantum_nodes);
  const std::uint32_t id = static_cast<std::uint32_t>(tenants_.size());
  if (options.name.empty()) {
    std::string name = "t";
    name += std::to_string(id);
    options.name = std::move(name);
  }
  if (options.weight == 0) options.weight = 1;
  tenants_.push_back(Tenant{&mapping, std::move(options)});
  return id;
}

// tenants_.at() throws std::out_of_range for an unknown tenant, before
// anything is queued.
void Forest::submit(std::uint32_t tenant, Request request) {
  detail::reject_out_of_range(tenants_.at(tenant).mapping->tree(), request);
  plane_->submit(tenant, std::move(request));
}

void Forest::submit(std::uint32_t tenant, std::vector<Request> requests) {
  const CompleteBinaryTree& tree = tenants_.at(tenant).mapping->tree();
  for (const Request& r : requests) detail::reject_out_of_range(tree, r);
  for (Request& r : requests) plane_->submit(tenant, std::move(r));
}

void Forest::ensure_plan() {
  if (planned_) return;
  std::vector<double> rates;
  rates.reserve(tenants_.size());
  for (const Tenant& t : tenants_) rates.push_back(t.options.rate);
  plan_ = plan_capacity(rates, options_.replicas);
  planned_ = true;
}

const CapacityPlan& Forest::plan() {
  ensure_plan();
  return plan_;
}

ForestReport Forest::run() {
  ensure_plan();
  const std::size_t N = tenants_.size();

  // The control plane's N-slot instance: DRR-metered, and with a global
  // bound each tenant reserves a weighted share of the pool (at least 1);
  // beyond its reserve a tenant borrows only while total occupancy is
  // under the bound.
  detail::PlaneConfig config;
  config.tick_cycles = options_.tick_cycles;
  config.workers = options_.workers;
  config.pipeline = options_.pipeline;
  config.drr_quantum_nodes = options_.drr_quantum_nodes;
  config.aggregate_prefix = "forest";
  std::vector<double> weights;
  for (std::size_t i = 0; i < N; ++i) {
    detail::SlotConfig& slot = config.slots.emplace_back();
    slot.mapping = tenants_[i].mapping;
    slot.metrics_prefix = "forest.t" + std::to_string(i);
    slot.lane_prefix = slot.metrics_prefix + ".lane";
    slot.options = tenants_[i].options;
    slot.weight = tenants_[i].options.weight;
    slot.first_lane = plan_.first_lane[i];
    slot.lanes = plan_.lanes[i];
    weights.push_back(static_cast<double>(slot.weight));
  }
  const bool pooled = options_.global_queue_bound != 0 && N > 0;
  if (pooled) {
    config.pool_bound = std::max(options_.global_queue_bound, N);
    config.reserved =
        apportion(static_cast<std::uint32_t>(config.pool_bound), weights);
    for (std::uint32_t& r : config.reserved) r = std::max(r, 1u);
  }

  detail::PlaneReport plane = plane_->run(config, registry_);
  ForestReport report;
  report.tenants = std::move(plane.slots);
  report.plan = plan_;
  report.ticks = plane.ticks;
  report.rounds = plane.rounds;
  report.final_cycle = plane.final_cycle;
  std::uint64_t total_served_nodes = 0;
  for (std::size_t i = 0; i < N; ++i) {
    report.tenants[i].name = tenants_[i].options.name;
    total_served_nodes += report.tenants[i].served_nodes;
  }

  // ---- Rollup: forest aggregate + per-tenant fairness rows. ----------
  Json roll = Json::object();
  roll.set("forest", std::move(plane.aggregate));
  Json jtenants = Json::array();
  for (std::size_t i = 0; i < N; ++i) {
    Json row = Json::object();
    row.set("id", Json(i));
    row.set("name", Json(report.tenants[i].name));
    row.set("weight", Json(tenants_[i].options.weight));
    row.set("rate", Json(tenants_[i].options.rate));
    row.set("lanes", Json(std::uint64_t{plan_.lanes[i]}));
    row.set("first_lane", Json(std::uint64_t{plan_.first_lane[i]}));
    if (pooled) row.set("reserved", Json(std::uint64_t{config.reserved[i]}));
    row.set("requests", Json(report.tenants[i].responses.size()));
    row.set("served_nodes", Json(report.tenants[i].served_nodes));
    row.set("batch_share",
            Json(total_served_nodes == 0
                     ? 0.0
                     : static_cast<double>(report.tenants[i].served_nodes) /
                           static_cast<double>(total_served_nodes)));
    row.set("metrics", report.tenants[i].metrics);
    jtenants.push_back(std::move(row));
  }
  roll.set("tenants", std::move(jtenants));
  roll.set("plan", plan_.to_json());
  if (pooled) roll.set("global_queue_bound", Json(config.pool_bound));
  report.metrics = std::move(roll);
  return report;
}

}  // namespace pmtree::serve
