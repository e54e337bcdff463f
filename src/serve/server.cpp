#include "pmtree/serve/server.hpp"

#include <memory>
#include <utility>

#include "control_plane.hpp"

namespace pmtree::serve {

std::uint64_t ServeReport::count(RequestStatus status) const noexcept {
  return detail::count_status(responses, status);
}

Json ServeReport::to_json() const {
  Json j = Json::object();
  j.set("requests", Json(responses.size()));
  j.set("ok", Json(count(RequestStatus::kOk)));
  j.set("shed", Json(count(RequestStatus::kShed)));
  j.set("expired", Json(count(RequestStatus::kExpired)));
  j.set("batches", Json(batches.size()));
  j.set("replicas", Json(replicas.size()));
  j.set("ticks", Json(ticks));
  j.set("rounds", Json(rounds));
  j.set("final_cycle", Json(final_cycle));
  // Read-only runs keep their exact JSON shape; read-write runs add the
  // barrier's aggregate verdicts.
  if (!mutations.empty()) {
    std::uint64_t applied = 0;
    for (const MutationRecord& m : mutations) {
      applied += m.status == dyn::DynStatus::kOk ? 1 : 0;
    }
    Json muts = Json::object();
    muts.set("count", Json(mutations.size()));
    muts.set("applied", Json(applied));
    muts.set("rejected", Json(mutations.size() - applied));
    j.set("mutations", std::move(muts));
  }
  // Accounting-only runs keep their exact JSON shape; real-memory runs
  // add the arena traffic totals.
  if (memory.nodes != 0) j.set("memory", memory.to_json());
  j.set("metrics", metrics);
  j.set("responses", detail::response_rows(responses));
  return j;
}

Server::Server(const TreeMapping& mapping, ServerOptions options)
    : mapping_(mapping),
      options_(options),
      plane_(std::make_unique<detail::ControlPlane>()) {
  detail::reject_unsupported(mapping_, options_, options_.dyn);
  options_.tick_cycles = detail::checked_tick(options_.tick_cycles);
  if (options_.replicas == 0) options_.replicas = 1;
}

Server::~Server() = default;

void Server::submit(Request request) {
  detail::reject_out_of_range(mapping_.tree(), request);
  plane_->submit(0, std::move(request));
}

void Server::submit(std::vector<Request> requests) {
  for (const Request& r : requests) {
    detail::reject_out_of_range(mapping_.tree(), r);
  }
  for (Request& r : requests) plane_->submit(0, std::move(r));
}

ServeReport Server::run() {
  // The control plane's one-slot instance: no DRR, no shared pool.
  detail::PlaneConfig config;
  config.tick_cycles = options_.tick_cycles;
  config.workers = options_.workers;
  config.pipeline = options_.pipeline;
  detail::SlotConfig& slot = config.slots.emplace_back();
  slot.mapping = &mapping_;
  slot.metrics_prefix = "serve";
  slot.lane_prefix = "serve.replica";
  slot.options = options_;
  slot.dyn = options_.dyn;
  slot.lanes = options_.replicas;

  detail::PlaneReport plane = plane_->run(config, registry_);
  TenantReport& only = plane.slots.front();
  ServeReport report;
  report.responses = std::move(only.responses);
  report.batches = std::move(only.batches);
  report.replicas = std::move(only.lanes);
  report.ticks = plane.ticks;
  report.rounds = plane.rounds;
  report.final_cycle = plane.final_cycle;
  report.mutations = std::move(plane.mutations.front());
  report.memory = only.memory;
  report.metrics = std::move(only.metrics);
  return report;
}

}  // namespace pmtree::serve
