// Dynamic batching: turning concurrent requests into template instances.
//
// The paper's guarantee is per *template instance*: a good coloring bounds
// the conflict cost of an L(K) run or a C(D, c) composite accessed as a
// unit. A stream of independent point lookups gets none of that benefit —
// each is its own one-node access — until a batcher aggregates them. The
// BatchFormer is that aggregator, shaped like an inference server's
// dynamic batcher: requests accumulate in the admission queue, and a
// batch is cut when enough nodes are waiting (max_batch_nodes) or the
// oldest request has waited long enough (max_wait_cycles).
//
// Each batch becomes ONE parallel memory access, the composite C(D, c)
// of its members' payloads (under COLOR, Theorem 6 bounds its cost by
// 4D/M + c). Its node set is those payloads deduplicated and sorted in
// (level, index) order — duplicate lookups of a hot key collapse into one
// physical request, the classic batching win. The serve layer cuts raw
// batches and dedups them in place (dedup()); it builds no per-batch
// decomposition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "pmtree/serve/admission.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/templates/instance.hpp"

namespace pmtree::serve {

struct BatchPolicy {
  /// Cut a batch once this many payload nodes are pending, and cap each
  /// batch's (pre-dedup) node intake at this size. A single request larger
  /// than the cap still dispatches — as its own batch — so oversized
  /// requests are never starved or split. 0 behaves as 1.
  std::uint64_t max_batch_nodes = 64;
  /// Cut a batch once the oldest pending request has waited this many
  /// cycles since *admission* (for blocked-then-promoted callers, the
  /// promotion tick — blocked time doesn't count against the batching
  /// window), full or not. 0 means every tick flushes — no batching
  /// delay. This bound is what guarantees the server drains: every
  /// admitted request dispatches within max_wait_cycles of entering the
  /// pending queue (plus tick rounding). Past kClockHorizon (request.hpp)
  /// the Server constructor and Forest::add_tenant throw
  /// std::invalid_argument.
  std::uint64_t max_wait_cycles = 16;
};

/// One formed batch == one parallel memory access.
struct FormedBatch {
  std::uint64_t id = 0;            ///< global batch id, in dispatch order
  std::uint64_t formed_cycle = 0;  ///< admission tick that cut the batch
  std::vector<std::size_t> members;     ///< canonical request indices
  std::vector<Node> nodes;              ///< deduped union, (level,index) order
  /// Maximal L(K) runs of `nodes`, filled only by a caller of coalesce();
  /// the serve layer leaves it empty. It stays until the E26 replay
  /// (e2ebench/src/server_rig.cpp), which assigns coalesce()'s result to
  /// it, is revised; both go then.
  CompositeInstance decomposition;
  std::uint64_t requested_nodes = 0;    ///< pre-dedup node count

  /// Nodes saved by coalescing duplicate lookups within the batch.
  [[nodiscard]] std::uint64_t coalesced_nodes() const noexcept {
    return requested_nodes - nodes.size();
  }
};

class BatchFormer {
 public:
  explicit BatchFormer(BatchPolicy policy) : policy_(policy) {
    if (policy_.max_batch_nodes == 0) policy_.max_batch_nodes = 1;
  }

  /// Whether the cut condition holds at tick `now`: the queue is
  /// non-empty and either max_batch_nodes are pending or the oldest
  /// request has waited max_wait_cycles since admission. The control
  /// plane cuts while this is true; the forest's deficit round-robin
  /// meters those cuts one batch at a time.
  [[nodiscard]] bool due(std::uint64_t now,
                         const AdmissionController& controller) const;

  /// The pre-dedup node count the next form_one_raw() would take — the
  /// DRR cost of the batch, computed by the same front-first fill walk
  /// without mutating the queue. 0 iff the queue is empty.
  [[nodiscard]] std::uint64_t next_batch_cost(
      const AdmissionController& controller) const;

  /// Cuts exactly one batch at tick `now`. Precondition: the pending
  /// queue is non-empty (callers gate on due()). The batch takes requests
  /// front-first, through `controller.pop_front()`, until the next one
  /// would push it past max_batch_nodes (always at least one), and
  /// allocates exactly the members and nodes it takes, whatever the cap.
  /// `nodes` is left as the raw member concatenation, duplicates and fill
  /// order included; dedup() finishes it in the executor's resolve, off
  /// the tick loop for every slot.
  [[nodiscard]] FormedBatch form_one_raw(std::uint64_t now,
                                         AdmissionController& controller);

  /// The coalescing kernel: sorts `nodes` in (level, index) order and
  /// removes duplicates in place. Its scratch is pooled per thread, so it
  /// allocates nothing per batch.
  static void dedup(std::vector<Node>& nodes);

  /// dedup() plus a scan for the C(D, c) whose parts are the maximal
  /// per-level runs of what remains; `nodes` ends exactly as dedup()
  /// leaves it. No library code calls it: it stays only for the E26
  /// replay (e2ebench/src/server_rig.cpp), and goes with
  /// FormedBatch::decomposition when that replay is revised.
  [[nodiscard]] static CompositeInstance coalesce(std::vector<Node>& nodes);

 private:
  /// What the next form_one_raw() takes from the front of the queue.
  struct Fill {
    std::size_t members = 0;
    std::uint64_t nodes = 0;  ///< pre-dedup
  };
  /// The front-first fill walk: whole requests until the next one would
  /// push the batch past max_batch_nodes (always at least one when the
  /// queue is non-empty). next_batch_cost() and form_one_raw() share it,
  /// so the DRR cost is the batch's exact size.
  [[nodiscard]] Fill next_fill(const AdmissionController& controller) const;

  BatchPolicy policy_;
  std::uint64_t next_id_ = 0;
};

}  // namespace pmtree::serve
