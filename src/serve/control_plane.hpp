// ControlPlane: the one serving loop behind Server and Forest (DESIGN.md
// §11, §13, §14). Internal to src/serve; not installed.
//
// A run drains the striped inboxes into the canonical (submit_cycle, slot,
// client, seq) order — a pure function of the submitted set — and ticks
// one loop over N tenant slots in serving rounds:
//
//   expire → promote → intake → cut → observe   (per tick, slots in id order)
//   [round barrier] assembly → retry scan       (per round)
//
// Server is the one-slot instance: no DRR metering and no shared pool, so
// its lone slot cuts every due batch. Forest is the N-slot instance with
// deficit-round-robin metering and the reserved-share pool.
//
// Every cut batch goes to an executor, and the loop cannot tell which:
//
//   * InlineExecutor (pipeline.workers == 0, the differential oracle)
//     coalesces and color-resolves each cut on the control thread, feeds
//     its lane's EngineSession, and drains the lanes at the round barrier
//     with parallel_chunks over `workers` threads;
//   * StagedRunner (pipeline.hpp) does the same resolution on a worker
//     pool and drains at its own barrier.
//
// Both receive the same raw-or-coalesced cut sequence and run every lane
// through an EngineSession, healthy or faulted, so batches, epoch
// observations, TouchStats and lane trajectories are bit-identical; only
// the pipeline's wall-time "pipeline" metrics section differs.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pmtree/engine/metrics.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/pipeline.hpp"
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
  unsigned workers = 1;  ///< inline executor drain threads (0 = hardware)
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

/// Report helpers shared by ServeReport and ForestReport: a status count
/// and the per-response JSON table.
[[nodiscard]] std::uint64_t count_status(const std::vector<Response>& responses,
                                         RequestStatus status) noexcept;
[[nodiscard]] Json response_rows(const std::vector<Response>& responses);

/// The resolve stage both executors share: coalesces a raw cut (a cut
/// already coalesced for an epoch controller is left alone), resolves its
/// colors into `colors` against the `epoch` mapping or else the lane's,
/// and returns the lane arenas' traffic for the batch.
mem::TouchStats resolve_batch(FormedBatch& batch, const TreeMapping* epoch,
                              const LaneSpec& lane,
                              std::vector<Color>& colors);

/// Wall nanoseconds since `start` (stage attribution).
inline std::uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

struct Submitted {
  std::uint32_t slot = 0;
  Request request;
};

class ControlPlane {
 public:
  ControlPlane();
  ~ControlPlane();
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Thread-safe MPSC submission to one slot.
  void submit(std::uint32_t slot, Request request);

  /// Serves everything submitted since the previous run. Instruments land
  /// in `registry`. The pipeline's worker pool is built on the first
  /// pipelined run and reused; the lane layout must not change after.
  [[nodiscard]] PlaneReport run(const PlaneConfig& config,
                                engine::MetricsRegistry& registry);

  static constexpr std::size_t kStripes = 16;

 private:
  struct Inbox {
    std::mutex mutex;
    std::vector<Submitted> requests;
  };

  std::array<Inbox, kStripes> inboxes_;
  std::unique_ptr<StagedRunner> runner_;
};

}  // namespace pmtree::serve::detail
