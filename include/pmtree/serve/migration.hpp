// Skew-adaptive load balancing for the serve loop (DESIGN.md §15).
//
// The paper's mappings are optimal for template *structure* but static:
// under hot-spot Zipf arrivals a fixed mapping concentrates load on the
// few modules owning the hot subtrees, and every serving batch barriers
// on its slowest module. This layer closes the loop online:
//
//   HeatTracker       — integer heat ledger: one exponentially decayed
//                       counter per (subtree at level L, base color),
//                       plus per-module fixed heat for nodes above L.
//   MigrationPlanner  — epoch controller. Every `epoch_batches` cut
//                       batches it decays the ledger, picks the top-k
//                       hottest subtrees, and greedily chooses per-subtree
//                       color rotations that minimize the predicted peak
//                       module heat, materializing a MigratedMapping
//                       (mapping/combinators.hpp) for subsequent batches.
//   MigrationEvent    — the audit record of one epoch plan.
//
// The planner checks its policy (MigrationPlanner::check) before sizing
// its ledger, and the Server constructor and Forest::add_tenant call the
// same check, so each rule is written once and holds in Release.
//
// Determinism contract: the planner is driven in batch cut order —
// observe(nodes, cycle) folds each batch's deduped node set into the
// ledger using the *base* mapping's colors. The serve executor calls it
// from whichever thread resolves the batch, one observation at a time:
// its observation turn serializes the calls in cut order at every thread
// count. Planner state is therefore a pure function of the cut sequence,
// which is itself a pure function of the submitted request set, so epoch
// mappings and responses are bit-identical at any worker count. Decay is
// integer (h -= h >> decay_shift at epoch boundaries) — no floating point
// anywhere on the decision path.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "pmtree/mapping/combinators.hpp"
#include "pmtree/mapping/mapping.hpp"
#include "pmtree/tree/node.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::serve {

/// Epoch-based remapping knobs. Disabled by default: `epoch_batches == 0`
/// keeps every serve path byte-identical to the static-mapping server.
struct MigrationPolicy {
  /// Plan an epoch every this many cut batches. 0 disables migration.
  std::uint32_t epoch_batches = 0;
  /// Hottest subtrees remapped per epoch (the rest reset to rotation 0).
  std::uint32_t top_k = 4;
  /// Subtree granularity level L: heat is tracked (and rotations applied)
  /// for the 2^L subtrees rooted at level L. Nodes above L never migrate.
  std::uint32_t subtree_level = 4;
  /// Epoch decay: every counter loses h >> decay_shift at each epoch
  /// boundary (shift 1 ≈ half-life of one epoch). 0 forgets everything.
  std::uint32_t decay_shift = 1;
  /// Subtrees with decayed heat below this stay on rotation 0.
  std::uint64_t min_heat = 1;

  [[nodiscard]] bool enabled() const noexcept {
    return epoch_batches > 0 && top_k > 0;
  }
};

/// One epoch plan, for audit and metrics. `moves` lists every selected
/// subtree with its chosen rotation (rotation 0 = deliberately kept).
struct MigrationEvent {
  std::uint64_t epoch = 0;        ///< 1-based epoch ordinal
  std::uint64_t cycle = 0;        ///< control-plane cycle of the plan
  std::uint64_t batches = 0;      ///< cumulative batches observed so far
  std::uint64_t peak_before = 0;  ///< predicted peak module heat, all rot 0
  std::uint64_t peak_after = 0;   ///< predicted peak under the chosen table
  std::vector<std::pair<std::uint32_t, Color>> moves;  ///< (subtree, rot)

  [[nodiscard]] Json to_json() const;
};

/// The integer heat ledger. Usable standalone (unit-tested for decay
/// semantics); MigrationPlanner owns one.
class HeatTracker {
 public:
  /// Tracks the 2^`subtree_level` subtrees of a tree over `modules` base
  /// colors. Throws std::invalid_argument for zero modules or a ledger of
  /// 2^subtree_level x modules cells that does not fit std::size_t.
  HeatTracker(std::uint32_t subtree_level, std::uint32_t modules);

  /// Folds one batch: node i (with its base color) adds one unit of heat
  /// to (its subtree, base color) when at/below the granularity level, or
  /// to the fixed per-module ledger when above it. Throws
  /// std::invalid_argument for spans of different lengths and
  /// std::out_of_range for a color >= modules() or a node index not below
  /// 2^level, before folding any node.
  void observe(std::span<const Node> nodes,
               std::span<const Color> base_colors);
  /// Exponential decay step: every counter loses `count >> shift`
  /// (shift 0 clears the ledger).
  void decay(std::uint32_t shift) noexcept;

  [[nodiscard]] std::uint32_t subtree_level() const noexcept {
    return level_;
  }
  [[nodiscard]] std::uint32_t subtree_count() const noexcept {
    return static_cast<std::uint32_t>(subtree_total_.size());
  }
  [[nodiscard]] std::uint32_t modules() const noexcept { return modules_; }
  /// Heat of subtree `sid` on base color `c`.
  [[nodiscard]] std::uint64_t cell(std::uint32_t sid,
                                   std::uint32_t c) const noexcept {
    return matrix_[std::size_t{sid} * modules_ + c];
  }
  /// Total heat of subtree `sid` across colors.
  [[nodiscard]] std::uint64_t subtree_heat(std::uint32_t sid) const noexcept {
    return subtree_total_[sid];
  }
  /// Heat of nodes above the granularity level on module `m` (immovable).
  [[nodiscard]] std::uint64_t fixed_heat(std::uint32_t m) const noexcept {
    return fixed_[m];
  }
  /// Total heat observed and still remembered (post-decay).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

 private:
  std::uint32_t level_;
  std::uint32_t modules_;
  std::vector<std::uint64_t> matrix_;         ///< subtree-major, M per row
  std::vector<std::uint64_t> subtree_total_;  ///< row sums of matrix_
  std::vector<std::uint64_t> fixed_;          ///< per-module, nodes above L
  std::uint64_t total_ = 0;
};

/// The epoch controller. One planner per server run (or per Forest
/// tenant); all calls are serialized in cut order.
class MigrationPlanner {
 public:
  /// Throws std::invalid_argument unless `policy` is enabled and its
  /// subtree_level is below base's tree's level count. The constructor
  /// runs it before building anything, and so do the Server constructor
  /// and Forest::add_tenant for an enabled policy.
  static void check(const TreeMapping& base, const MigrationPolicy& policy);

  /// `base` must outlive the planner (and every mapping it mints). Throws
  /// what check() throws.
  MigrationPlanner(const TreeMapping& base, const MigrationPolicy& policy);

  /// Folds one freshly cut batch (deduped nodes) into the ledger, in cut
  /// order, and plans a new epoch when the policy's batch budget is
  /// reached. `cycle` is the control-plane tick that cut the batch (audit
  /// only — it never affects the plan).
  void observe(std::span<const Node> nodes, std::uint64_t cycle);

  /// The mapping batches cut *now* should resolve against: the base until
  /// the first epoch, then the latest epoch's MigratedMapping. Pointers
  /// stay valid for the planner's lifetime (epochs live in a deque).
  [[nodiscard]] const TreeMapping& current() const noexcept {
    return epochs_.empty() ? base_ : static_cast<const TreeMapping&>(
                                         epochs_.back());
  }

  [[nodiscard]] std::uint64_t epochs_planned() const noexcept {
    return epochs_planned_;
  }
  [[nodiscard]] std::uint64_t batches_observed() const noexcept {
    return batches_total_;
  }
  [[nodiscard]] const std::vector<MigrationEvent>& events() const noexcept {
    return events_;
  }

  /// Metrics payload for ServeMetrics::set_migration: policy echo, epoch
  /// and move counters, predicted peak before/after the last plan, and the
  /// last few events (full event list stays in events()).
  [[nodiscard]] Json stats() const;

 private:
  void plan(std::uint64_t cycle);

  const TreeMapping& base_;
  MigrationPolicy policy_;
  HeatTracker heat_;
  std::vector<Color> color_scratch_;
  /// Epoch mapping snapshots. Deque: stable addresses — the executor's
  /// cuts hold raw pointers to their epoch's mapping while workers color
  /// them and the observing worker mints later epochs.
  std::deque<MigratedMapping> epochs_;
  std::vector<MigrationEvent> events_;
  std::uint32_t batches_since_plan_ = 0;
  std::uint64_t batches_total_ = 0;
  std::uint64_t epochs_planned_ = 0;
  std::uint64_t subtrees_moved_ = 0;  ///< moves with rotation != 0, ever
};

}  // namespace pmtree::serve
