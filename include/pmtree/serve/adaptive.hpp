// Runtime mapping selection for the serve loop (DESIGN.md §17).
//
// The paper's R10 trade-off (§4–§6) is the observation that COLOR and
// LABEL-TREE rank *differently* depending on the template mix: COLOR is
// optimal for subtrees and strong on composites, LABEL-TREE wins on some
// path/level-dominated mixes, and neither dominates. A deployment that
// fixes one of them at configuration time is betting on a workload it has
// not seen. This layer turns the choice into a measurement:
//
//   AdaptiveSelector — epoch controller, same skeleton as §15's
//     MigrationPlanner. Every cut batch it resolves the batch's deduped
//     node set through EVERY candidate mapping and scores each candidate
//     by the batch's peak per-module request count (cost.hpp's rounds():
//     the makespan of the batch under the paper's
//     one-request-per-module-per-cycle service model — the quantity the
//     engine's completion time is governed by).
//     Every `epoch_batches` batches it switches to the candidate with the
//     lowest score when that one strictly beats the incumbent, then halves
//     every score: later cut batches resolve against that candidate
//     itself.
//   AdaptiveEvent — the audit record of one epoch decision.
//
// The selector checks its policy (AdaptiveSelector::check) in its
// constructor, and the Server constructor and Forest::add_tenant call the
// same check, so each rule is written once and holds in Release.
//
// Determinism contract (inherited verbatim from §15): the selector is
// driven only by the single-threaded control plane, in batch cut order;
// scores are integer sums of conflict peaks, halved with integer shifts.
// Selector state is a pure function of the cut sequence, so decisions
// and responses are bit-identical at any worker count. Crucially the
// score is a
// *simulated* quantity: the real-memory backend (pmtree/mem) measures
// bandwidth but never feeds the decision path, so enabling it cannot
// perturb the selection (or the responses).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pmtree/mapping/mapping.hpp"
#include "pmtree/tree/node.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::serve {

/// Epoch-based selection knobs. Disabled by default: `epoch_batches == 0`
/// (or no candidates) keeps every serve path byte-identical to the
/// static-mapping server.
struct AdaptivePolicy {
  /// Re-decide every this many cut batches. 0 disables adaptation.
  std::uint32_t epoch_batches = 0;
  /// The mappings on the table (not owned; each must outlive the run and
  /// color the server's tree with the server's module count). The
  /// server's own mapping serves until the first epoch decision; list it
  /// here too if it should stay eligible afterwards.
  std::vector<const TreeMapping*> candidates;

  [[nodiscard]] bool enabled() const noexcept {
    return epoch_batches > 0 && !candidates.empty();
  }
};

/// One epoch decision, for audit and metrics.
struct AdaptiveEvent {
  std::uint64_t epoch = 0;    ///< 1-based epoch ordinal
  std::uint64_t cycle = 0;    ///< control-plane cycle of the decision
  std::uint64_t batches = 0;  ///< cumulative batches observed so far
  std::vector<std::uint64_t> scores;  ///< decayed score per candidate
  std::size_t chosen = 0;             ///< winning candidate index
  bool switched = false;              ///< did the active mapping change?

  [[nodiscard]] Json to_json() const;
};

/// The epoch controller. One selector per server run (or per Forest
/// tenant); all calls come from the single-threaded control plane.
class AdaptiveSelector {
 public:
  /// Throws std::invalid_argument unless `policy` is enabled and every
  /// candidate is non-null and colors base's tree with base's module
  /// count. The constructor runs it before building anything, and so do
  /// the Server constructor and Forest::add_tenant for an enabled policy.
  static void check(const TreeMapping& base, const AdaptivePolicy& policy);

  /// `base` and every policy candidate must outlive the selector. Throws
  /// what check() throws.
  AdaptiveSelector(const TreeMapping& base, const AdaptivePolicy& policy);

  /// Folds one freshly cut batch (deduped nodes) into every candidate's
  /// score, in cut order, and re-decides when the policy's batch budget
  /// is reached. `cycle` is the control-plane tick that cut the batch
  /// (audit only — it never affects the decision).
  void observe(std::span<const Node> nodes, std::uint64_t cycle);

  /// The mapping batches cut *now* should resolve against: the base until
  /// the first switch, then the winning candidate.
  [[nodiscard]] const TreeMapping& current() const noexcept {
    return *active_;
  }

  /// The candidate currently serving, or nullptr while the base still is
  /// (no switch yet — ties keep the base in place even when it is listed
  /// among the candidates).
  [[nodiscard]] const TreeMapping* active_candidate() const noexcept {
    return switches_ == 0 ? nullptr : active_;
  }
  [[nodiscard]] std::uint64_t epochs_planned() const noexcept {
    return epochs_planned_;
  }
  [[nodiscard]] std::uint64_t batches_observed() const noexcept {
    return batches_total_;
  }
  [[nodiscard]] const std::vector<AdaptiveEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::span<const std::uint64_t> scores() const noexcept {
    return scores_;
  }

  /// Metrics payload for ServeMetrics::set_adaptive: policy echo with
  /// candidate names, epoch/switch counters, the live scores, and the
  /// last few events (full event list stays in events()).
  [[nodiscard]] Json stats() const;

 private:
  void decide(std::uint64_t cycle);

  AdaptivePolicy policy_;
  std::vector<std::uint64_t> scores_;  ///< one per candidate
  /// The mapping actually serving: the base until the first switch, then
  /// always one of policy_.candidates. Compared by pointer when deciding
  /// whether an epoch switches.
  const TreeMapping* active_ = nullptr;
  std::vector<AdaptiveEvent> events_;
  std::uint32_t batches_since_decide_ = 0;
  std::uint64_t batches_total_ = 0;
  std::uint64_t epochs_planned_ = 0;
  std::uint64_t switches_ = 0;  ///< decisions that changed the mapping
};

}  // namespace pmtree::serve
