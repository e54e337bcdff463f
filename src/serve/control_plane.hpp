// ControlPlane: the one serving loop behind Server and Forest (DESIGN.md
// §11, §13, §14). Internal to src/serve; not installed.
//
// A run drains the striped inboxes into the canonical (submit_cycle, slot,
// client, seq) order — a pure function of the submitted set — and ticks
// one loop over N tenant slots in serving rounds:
//
//   expire → promote → intake → cut → observe   (per tick, slots in id order)
//   [round barrier] execute → assembly → retry  (per round)
//
// Server is the one-slot instance: no DRR metering and no shared pool, so
// its lone slot cuts every due batch. Forest is the N-slot instance with
// deficit-round-robin metering and the reserved-share pool.
//
// A cut only records the batch, its lane, its slot and its epoch mapping.
// The round barrier runs the one batch executor: parallel_chunks over the
// round's cuts, each coalesced, color-resolved and arena-touched by
// whichever thread takes its chunk, then over the lanes, at most one
// thread per lane, each feeding its EngineSession (healthy or faulted) its
// cuts in cut order and draining it. Colors are pure functions of the
// coordinate and of the epoch mapping recorded at the cut, so resolving at
// the barrier rather than at the cut changes wall time only: batches,
// epoch observations, TouchStats and lane trajectories are bit-identical
// at every thread count. The thread count is `pipeline.workers` when that
// is >= 1 — and then the report gains the wall-time "pipeline" section —
// and `workers` otherwise.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "pmtree/engine/metrics.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/server.hpp"

namespace pmtree::serve::detail {

/// One tenant slot: a tree's mapping plus the knobs that serve it. A
/// Server fills `options` from its ServerOptions; name, rate and weight
/// are unused here.
struct SlotConfig {
  const TreeMapping* mapping = nullptr;
  std::string metrics_prefix;  ///< "serve" or "forest.t<i>"
  std::string lane_prefix;     ///< "serve.replica" or "forest.t<i>.lane"
  TenantOptions options;
  DynBinding dyn;
  std::uint32_t first_lane = 0;  ///< batch k runs on first_lane + k mod lanes
  std::uint32_t lanes = 1;
};

struct PlaneConfig {
  std::uint64_t tick_cycles = 1;
  /// Executor threads without stage attribution (0 = hardware); used
  /// only while `pipeline.workers` is 0.
  unsigned workers = 1;
  PipelineOptions pipeline;
  std::vector<SlotConfig> slots;
  /// Deficit-round-robin batch formation by slot weight; 0 leaves it
  /// unmetered.
  std::uint64_t drr_quantum_nodes = 0;
  /// Shared bound on total pending requests (0 = none) and each slot's
  /// reserved share of it.
  std::size_t pool_bound = 0;
  std::vector<std::uint32_t> reserved;
  /// Prefix of the all-slot aggregate metrics ("" = none). The pipeline
  /// section lands on the aggregate, or on slot 0 without one.
  std::string aggregate_prefix;
};

struct PlaneReport {
  std::vector<TenantReport> slots;  ///< name left empty
  std::vector<std::vector<MutationRecord>> mutations;  ///< per slot
  std::uint64_t ticks = 0;
  std::uint64_t rounds = 0;
  std::uint64_t final_cycle = 0;
  Json aggregate;  ///< aggregate summary; null without one
};

/// Throws std::invalid_argument for a feature pair the control plane does
/// not compose: dyn serving with migration or adaptive selection (both
/// would remap a tree whose shape the barrier changes), migration with
/// adaptive selection (both own the epoch mapping), and a dyn tree without
/// its colorer. Server's constructor and Forest::add_tenant call it, so a
/// rejected configuration fails before it serves anything.
void reject_excluded_pairs(const MigrationPolicy& migration,
                           const AdaptivePolicy& adaptive,
                           const DynBinding& dyn);

/// Throws std::invalid_argument for an enabled epoch controller whose
/// inputs do not fit the slot's `mapping`: an adaptive candidate that is
/// null or colors another tree or module count (its colors would index
/// the lane's per-module state out of bounds once it wins an epoch), or a
/// migration subtree level at or past the tree's last level, which names
/// subtrees that do not exist. Called next to reject_excluded_pairs.
void reject_mismatched_epoch_inputs(const TreeMapping& mapping,
                                    const MigrationPolicy& migration,
                                    const AdaptivePolicy& adaptive);

/// Report helpers shared by ServeReport and ForestReport: a status count
/// and the per-response JSON table.
[[nodiscard]] std::uint64_t count_status(const std::vector<Response>& responses,
                                         RequestStatus status) noexcept;
[[nodiscard]] Json response_rows(const std::vector<Response>& responses);

/// Stage attribution of the batch executor (DESIGN.md §14), cumulative
/// across runs like every registry instrument. Wall nanoseconds: `control`
/// is the tick loops; `resolve` (coalesce + color + arena touch),
/// `execute` (session feeds) and `drain` (session drains) are summed over
/// threads; `barrier` is the wall time of the round barriers.
struct StageStats {
  std::uint64_t control_ns = 0;
  std::uint64_t resolve_ns = 0;
  std::uint64_t execute_ns = 0;
  std::uint64_t drain_ns = 0;
  std::uint64_t barrier_ns = 0;
  std::uint64_t rounds = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_in_flight = 0;  ///< most cuts held at one barrier
};

struct Submitted {
  std::uint32_t slot = 0;
  Request request;
};

class ControlPlane {
 public:
  /// Thread-safe MPSC submission to one slot.
  void submit(std::uint32_t slot, Request request);

  /// Serves everything submitted since the previous run. Instruments land
  /// in `registry`; stage attribution accumulates here across runs.
  [[nodiscard]] PlaneReport run(const PlaneConfig& config,
                                engine::MetricsRegistry& registry);

  static constexpr std::size_t kStripes = 16;

 private:
  struct Inbox {
    std::mutex mutex;
    std::vector<Submitted> requests;
  };

  std::array<Inbox, kStripes> inboxes_;
  StageStats stages_;
};

}  // namespace pmtree::serve::detail
