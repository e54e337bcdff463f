// PALM-style batched mutations for the serve front-end (DESIGN.md §16).
//
// Write requests (RequestKind::kInsert / kErase) flow through the same
// admission -> batching -> replica pipeline as reads; what distinguishes
// them is the *apply barrier*. When the control plane cuts a batch, the
// batch's writers are applied to the bound DynamicTree right there — in
// canonical (client, seq) member order, after exact-duplicate dedup —
// and the IncrementalColorer counts the batch's node set plus every
// applied target as touched. Colors need no update: the colorer's
// mapping covers the whole envelope from construction. The barrier is a
// pure function of the cut sequence, which the one control plane cuts
// identically at every thread count, so mutation verdicts and responses
// stay bit-identical at 1/2/8 workers, pipeline workers included.
//
// Conflict scheduling: reads in the same composite instance observe the
// tree as of the batch cut (their node sets were planned against it);
// writers then apply in canonical order, so a write-write conflict
// resolves deterministically — the canonically-first writer wins and the
// loser's verdict (kOccupied, kNotLive, kParentMissing, ...) is recorded
// in the mutation log rather than silently dropped. A request whose
// mutation is rejected still completes kOk as a *request* (it was
// admitted, batched and executed); clients reconcile outcomes from the
// log, mirroring how the read clients re-derive answers post-run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/dyn/incremental.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::serve {

/// Binds a Server to a dynamic tree. When `tree` is set the server runs
/// in read-write mode: Insert/Erase requests mutate it at the batch-cut
/// barrier and `colorer` (required; it must be the server's mapping or
/// share its color function) counts the touched nodes for dyn_stats.
/// Server's constructor throws std::invalid_argument for a tree without a
/// colorer, for a colorer over fewer levels than the server's tree or the
/// tree's envelope (it touches every read node and applied insert target),
/// and for a tree combined with migration or adaptive selection; faulted
/// configurations run the mutation barrier like everything else.
struct DynBinding {
  dyn::DynamicTree* tree = nullptr;
  dyn::IncrementalColorer* colorer = nullptr;

  [[nodiscard]] bool enabled() const noexcept { return tree != nullptr; }
};

/// One applied (or rejected) mutation, in apply order — the deterministic
/// log clients reconcile against and the differential tests compare
/// across worker counts.
struct MutationRecord {
  std::uint64_t batch = 0;          ///< batch whose barrier applied it
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  RequestKind kind = RequestKind::kRead;
  Node target;
  std::int64_t payload = 0;
  dyn::DynStatus status = dyn::DynStatus::kOk;
  std::uint64_t applied_cycle = 0;  ///< the cut tick (the barrier's clock)
};

/// The apply barrier: runs `batch`'s writers against the binding at cut
/// time. `applied` has one flag per canonical request index; a request's
/// mutation applies exactly once even if retries re-dispatch it in a
/// later batch. Appends one MutationRecord per writer (including deduped
/// and rejected ones) to `log` and touches the colorer with the batch's
/// node set and every applied insert target. Control-plane only.
void apply_batch_mutations(const FormedBatch& batch,
                           std::span<const Request> requests,
                           const DynBinding& binding, std::uint64_t cycle,
                           std::vector<char>& applied,
                           std::vector<MutationRecord>& log);

/// End-of-run snapshot for ServeMetrics::set_dyn: live-set size / version
/// of the tree, per-status mutation counts, and the colorer's touch
/// counters (nodes_colored / touches). Pure accounting; identical across
/// execution paths.
[[nodiscard]] Json dyn_stats(const DynBinding& binding,
                             const std::vector<MutationRecord>& log);

}  // namespace pmtree::serve
