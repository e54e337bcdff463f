#include "pmtree/serve/mutation.hpp"

#include <algorithm>

namespace pmtree::serve {

void apply_batch_mutations(const FormedBatch& batch,
                           std::span<const Request> requests,
                           const DynBinding& binding, std::uint64_t cycle,
                           std::vector<char>& applied,
                           std::vector<MutationRecord>& log) {
  if (!binding.enabled()) return;

  // Accounting only: the colorer's mapping already colors every envelope
  // node. Raw (uncoalesced) batches repeat nodes; touches() counts the
  // repeats, nodes_colored() does not.
  binding.colorer->touch(std::span<const Node>(batch.nodes.data(),
                                               batch.nodes.size()));

  // Writers of this batch, in canonical member order (members are pushed
  // in admission order, which is canonical). Canonical order is the
  // barrier's tie-break: it matches the order a single client planned its
  // speculative mutations in, so per-client sequences apply exactly as
  // planned, and cross-client conflicts resolve to the canonically-first
  // writer deterministically.
  for (const std::size_t index : batch.members) {
    const Request& req = requests[index];
    if (req.kind == RequestKind::kRead || applied[index] != 0) continue;
    applied[index] = 1;

    MutationRecord rec;
    rec.batch = batch.id;
    rec.client = req.client;
    rec.seq = req.seq;
    rec.kind = req.kind;
    rec.target = req.target;
    rec.payload = req.payload;
    rec.applied_cycle = cycle;

    // Dedup: the most recent non-duplicate writer on this coordinate in
    // this batch decides. Same kind — an identical op already got its
    // verdict, later copies are marked instead of re-applied. Different
    // kind — the coordinate's state changed in between (an insert, an
    // erase of the same leaf, then a re-insert, all in one batch), so the
    // repeat is a fresh application, not a copy.
    bool duplicate = false;
    for (auto it = log.rbegin(); it != log.rend() && it->batch == batch.id;
         ++it) {
      if (it->target != rec.target ||
          it->status == dyn::DynStatus::kDuplicate) {
        continue;
      }
      duplicate = it->kind == rec.kind;
      break;
    }
    if (duplicate) {
      rec.status = dyn::DynStatus::kDuplicate;
      log.push_back(rec);
      continue;
    }

    if (req.kind == RequestKind::kInsert) {
      rec.status = binding.tree->insert_node(req.target);
      if (rec.status == dyn::DynStatus::kOk) {
        binding.colorer->touch(req.target);
      }
    } else {
      rec.status = binding.tree->remove_leaf(req.target);
    }
    log.push_back(rec);
  }
}

Json dyn_stats(const DynBinding& binding,
               const std::vector<MutationRecord>& log) {
  std::uint64_t inserts = 0;
  std::uint64_t erases = 0;
  std::uint64_t applied = 0;
  std::uint64_t duplicates = 0;
  for (const MutationRecord& rec : log) {
    if (rec.kind == RequestKind::kInsert) ++inserts;
    if (rec.kind == RequestKind::kErase) ++erases;
    if (rec.status == dyn::DynStatus::kOk) ++applied;
    if (rec.status == dyn::DynStatus::kDuplicate) ++duplicates;
  }
  Json j = Json::object();
  j.set("live_nodes", Json(binding.tree->size()));
  j.set("levels", Json(std::uint64_t{binding.tree->levels()}));
  j.set("tree_version", Json(binding.tree->version()));
  Json muts = Json::object();
  muts.set("inserts", Json(inserts));
  muts.set("erases", Json(erases));
  muts.set("applied", Json(applied));
  muts.set("rejected", Json(log.size() - applied - duplicates));
  muts.set("deduped", Json(duplicates));
  j.set("mutations", std::move(muts));
  Json colorer = Json::object();
  colorer.set("scheme", Json(std::string(binding.colorer->name())));
  colorer.set("nodes_colored", Json(binding.colorer->nodes_colored()));
  colorer.set("touches", Json(binding.colorer->touches()));
  j.set("colorer", std::move(colorer));
  return j;
}

}  // namespace pmtree::serve
