// Fair sharing primitives for multi-tenant serving (DESIGN.md §13).
//
// A forest front-end divides two fixed resources among N tenants: the
// replica pool (how much parallel memory capacity each tenant's batches
// get) and the per-tick batch-formation budget (who gets to dispatch
// when everyone is backlogged). Both divisions reduce to the same
// primitive — apportion an integer total across weighted claimants with
// no systematic bias — plus a deficit-round-robin scheduler that turns
// the static weights into a per-tick service discipline with a bounded
// deviation from the weighted-fair ideal.
//
// Everything here is a pure function of its inputs (largest-remainder
// ties break toward the lower tenant id; DRR state advances only through
// explicit calls), so the forest's determinism contract extends through
// the fairness layer unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "pmtree/util/json.hpp"

namespace pmtree::serve {

/// Largest-remainder apportionment of `total` integer units across
/// `weights` (Hamilton's method): unit i receives floor(total * w_i / W)
/// plus one of the leftover units, awarded by descending fractional
/// remainder with ties broken toward the lower index. Non-positive and
/// non-finite weights count as zero; if every weight is zero the split
/// is uniform. The result always sums to exactly `total`.
[[nodiscard]] std::vector<std::uint32_t> apportion(
    std::uint32_t total, const std::vector<double>& weights);

/// Static capacity plan: how the forest's replica pool is divided into
/// per-tenant engine lanes from the tenants' declared request rates.
/// Tenant i owns `lanes[i]` lanes starting at global lane `first_lane[i]`;
/// its batch k executes on lane first_lane[i] + (k mod lanes[i]). Lane
/// ranges are disjoint, so one tenant's degraded or overloaded lanes
/// never touch another tenant's completions.
struct CapacityPlan {
  std::vector<std::uint32_t> lanes;       ///< per tenant, always >= 1
  std::vector<std::uint32_t> first_lane;  ///< per tenant, contiguous ranges
  std::uint32_t total_lanes = 0;          ///< sum of lanes
  std::uint32_t requested_replicas = 0;   ///< the pool size asked for

  /// {"requested_replicas", "total_lanes", "tenants": [{lanes, first_lane}]}
  [[nodiscard]] Json to_json() const;
};

/// Plans the replica pool: `replicas` lanes are apportioned across the
/// tenants' declared `rates` (largest remainder), with every tenant
/// guaranteed at least one lane. A pool smaller than the tenant count is
/// grown to one lane per tenant — the plan records the originally
/// requested size, and the forest reports the oversubscription rather
/// than silently starving a tenant of memory capacity.
[[nodiscard]] CapacityPlan plan_capacity(const std::vector<double>& rates,
                                         std::uint32_t replicas);

/// Deficit round-robin over tenants, in payload nodes: each backlogged
/// tenant accrues `quantum * weight` node-credits per scheduler round
/// (one forest tick), spends them on the batches it cuts, and forfeits
/// any remaining balance when its queue empties — the classic DRR discipline
/// (Shreedhar & Varghese), with the packet size replaced by a batch's
/// pre-dedup node count. Over any backlogged interval a tenant's served
/// nodes deviate from its weighted share by at most one batch plus one
/// quantum, which is the bound the fairness suite asserts.
class DeficitRoundRobin {
 public:
  /// One weight per tenant; zero weights behave as 1. `quantum_nodes` is
  /// the per-round credit of a weight-1 tenant (0 behaves as 1). Throws
  /// std::invalid_argument where check() does.
  DeficitRoundRobin(std::vector<std::uint64_t> weights,
                    std::uint64_t quantum_nodes);

  /// Throws std::invalid_argument unless a tenant of `weight` accrues a
  /// per-round credit, weight * quantum_nodes (zeros behaving as 1), that
  /// fits 64 bits. Forest::add_tenant calls it with the forest's quantum.
  static void check(std::uint64_t weight, std::uint64_t quantum_nodes);

  /// Tenant i's per-round credit: quantum * weight.
  [[nodiscard]] std::uint64_t quantum(std::size_t i) const noexcept {
    return quanta_[i];
  }
  [[nodiscard]] std::uint64_t deficit(std::size_t i) const noexcept {
    return deficit_[i];
  }

  /// Begins tenant i's turn this round: accrues its quantum, saturating
  /// at UINT64_MAX. Call once per round, only for backlogged tenants.
  void begin_turn(std::size_t i) noexcept {
    deficit_[i] = deficit_[i] > ~std::uint64_t{0} - quanta_[i]
                      ? ~std::uint64_t{0}
                      : deficit_[i] + quanta_[i];
  }

  /// Whether tenant i can afford a batch of `cost` nodes right now.
  [[nodiscard]] bool affords(std::size_t i, std::uint64_t cost) const noexcept {
    return deficit_[i] >= cost;
  }
  /// Spends `cost` node-credits (precondition: affords(i, cost)).
  void spend(std::size_t i, std::uint64_t cost) noexcept {
    deficit_[i] -= cost;
  }
  /// Tenant i's queue emptied: its unused credit is forfeited, so idle
  /// tenants cannot bank service for a later burst.
  void reset(std::size_t i) noexcept { deficit_[i] = 0; }

  [[nodiscard]] std::size_t tenants() const noexcept { return quanta_.size(); }

 private:
  std::vector<std::uint64_t> quanta_;
  std::vector<std::uint64_t> deficit_;
};

}  // namespace pmtree::serve
