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
// A cut records the raw batch, its lane, its slot and, for a slot with an
// epoch controller, the slot that must observe it, in the one batch
// executor, and every 32nd cut publishes a chunk of 32. With two or more
// threads the executor's workers, started for the run, claim each whole
// chunk in order while the tick loop goes on. A worker dedups its chunk's
// cuts; a chunk holding an observing cut then takes the executor's
// observation turn (turns go in chunk order), folds each observing cut
// into its slot's controller in cut order, records the epoch mapping in
// force, and passes the turn; then it color-resolves and arena-touches the
// chunk. The round barrier publishes the last, partial chunk and runs the
// same claim loop on the control thread until every chunk is done, so one
// thread resolves them all there. It then feeds the lanes, at most one
// thread per lane, each its EngineSession (healthy or faulted) its cuts in
// cut order, and drains them. No observation feeds the tick loop, and the
// turn hands every controller the same deduplicated batches in the same
// order at every thread count, so batches, epoch observations, TouchStats
// and lane trajectories are bit-identical at every thread count. The
// thread count is `pipeline.workers` when that is >= 1 — and then the
// report gains the wall-time "pipeline" section — and `workers`
// otherwise.
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

/// One tenant slot: a tree's mapping plus the options that serve it. A
/// Server assigns its ServerOptions' SlotOptions base, a Forest its
/// tenant's, plus the tenant's DRR weight.
struct SlotConfig {
  const TreeMapping* mapping = nullptr;
  std::string metrics_prefix;  ///< "serve" or "forest.t<i>"
  std::string lane_prefix;     ///< "serve.replica" or "forest.t<i>.lane"
  SlotOptions options;
  std::uint64_t weight = 1;  ///< DRR weight; read only under DRR metering
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

/// The one check of a slot, called once by the Server constructor and
/// once by Forest::add_tenant: throws std::invalid_argument for each rule
/// SlotOptions (server.hpp) and DynBinding (mutation.hpp) state, so a
/// slot the control plane cannot serve fails before it serves anything.
/// With reject_out_of_range at submit, it keeps every node the executor
/// colors, touches or counts inside the arrays sized for it.
void reject_unsupported(const TreeMapping& mapping, const SlotOptions& slot,
                        const DynBinding& dyn);

/// The tick period the Server and Forest constructors keep: 0 behaves as
/// 1, and one past kClockHorizon, whose ticks would wrap the clock, throws
/// std::invalid_argument.
[[nodiscard]] std::uint64_t checked_tick(std::uint64_t tick_cycles);

/// Throws std::out_of_range for a request with a submit_cycle past
/// kClockHorizon or a node outside `tree`. Server::submit and
/// Forest::submit call it before the inbox lock.
void reject_out_of_range(const CompleteBinaryTree& tree,
                         const Request& request);

/// Report helpers shared by ServeReport and ForestReport: a status count
/// and the per-response JSON table.
[[nodiscard]] std::uint64_t count_status(const std::vector<Response>& responses,
                                         RequestStatus status) noexcept;
[[nodiscard]] Json response_rows(const std::vector<Response>& responses);

/// Stage attribution of the batch executor (DESIGN.md §14), cumulative
/// across runs like every registry instrument. Wall nanoseconds: `control`
/// is the tick loops, chunk publication included; `resolve` (dedup +
/// epoch observation + color + arena touch), `observe_wait` (waits for an
/// observation turn, outside `resolve`), `execute` (session feeds) and
/// `drain` (session drains) are summed over threads; `barrier` is the
/// wall time of the round barriers: the resolve backlog left when ticking
/// ends, plus the lane feeds and drains.
struct StageStats {
  std::uint64_t control_ns = 0;
  std::uint64_t resolve_ns = 0;
  std::uint64_t observe_wait_ns = 0;
  std::uint64_t execute_ns = 0;
  std::uint64_t drain_ns = 0;
  std::uint64_t barrier_ns = 0;
  std::uint64_t rounds = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_in_flight = 0;  ///< most cuts in one round
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
