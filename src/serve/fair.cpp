#include "pmtree/serve/fair.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace pmtree::serve {

std::vector<std::uint32_t> apportion(std::uint32_t total,
                                     const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  std::vector<std::uint32_t> shares(n, 0);
  if (n == 0 || total == 0) return shares;

  std::vector<double> w(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = std::isfinite(weights[i]) && weights[i] > 0.0 ? weights[i] : 0.0;
    sum += w[i];
  }
  if (sum <= 0.0) {
    std::fill(w.begin(), w.end(), 1.0);
    sum = static_cast<double>(n);
  }

  std::vector<double> remainder(n);
  std::uint32_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double quota = static_cast<double>(total) * w[i] / sum;
    shares[i] = static_cast<std::uint32_t>(quota);  // floor: quota >= 0
    remainder[i] = quota - static_cast<double>(shares[i]);
    assigned += shares[i];
  }

  // Leftover units go to the largest fractional remainders; ties break
  // toward the lower index so the split is a pure function of the input.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return remainder[a] > remainder[b];
                   });
  for (std::size_t k = 0; assigned < total; ++k) {
    shares[order[k % n]] += 1;
    assigned += 1;
  }
  return shares;
}

Json CapacityPlan::to_json() const {
  Json j = Json::object();
  j.set("requested_replicas", Json(std::uint64_t{requested_replicas}));
  j.set("total_lanes", Json(std::uint64_t{total_lanes}));
  Json tenants = Json::array();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    Json t = Json::object();
    t.set("lanes", Json(std::uint64_t{lanes[i]}));
    t.set("first_lane", Json(std::uint64_t{first_lane[i]}));
    tenants.push_back(std::move(t));
  }
  j.set("tenants", std::move(tenants));
  return j;
}

CapacityPlan plan_capacity(const std::vector<double>& rates,
                           std::uint32_t replicas) {
  CapacityPlan plan;
  plan.requested_replicas = replicas;
  const std::size_t n = rates.size();
  if (n == 0) return plan;

  // Guarantee every tenant a lane, then split the surplus by rate. A pool
  // smaller than the tenant count grows to one lane each (recorded via
  // requested_replicas) rather than starving someone of memory capacity.
  const std::uint32_t pool =
      std::max(replicas, static_cast<std::uint32_t>(n));
  plan.lanes = apportion(pool - static_cast<std::uint32_t>(n), rates);
  plan.first_lane.resize(n);
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    plan.lanes[i] += 1;
    plan.first_lane[i] = next;
    next += plan.lanes[i];
  }
  plan.total_lanes = next;
  return plan;
}

void DeficitRoundRobin::check(std::uint64_t weight,
                              std::uint64_t quantum_nodes) {
  weight = std::max<std::uint64_t>(weight, 1);
  quantum_nodes = std::max<std::uint64_t>(quantum_nodes, 1);
  if (weight > ~std::uint64_t{0} / quantum_nodes) {
    throw std::invalid_argument(
        "DRR weight * quantum_nodes does not fit 64 bits");
  }
}

DeficitRoundRobin::DeficitRoundRobin(std::vector<std::uint64_t> weights,
                                     std::uint64_t quantum_nodes)
    : quanta_(std::move(weights)), deficit_(quanta_.size(), 0) {
  if (quantum_nodes == 0) quantum_nodes = 1;
  for (std::uint64_t& q : quanta_) {
    check(q, quantum_nodes);
    q = (q == 0 ? 1 : q) * quantum_nodes;
  }
}

}  // namespace pmtree::serve
