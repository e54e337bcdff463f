// StagedRunner: the PALM-style staged executor of the Server/Forest
// control plane (DESIGN.md §11, §14).
//
// The inline executor does each cut batch's work on the control thread:
// coalesce → color-resolve → feed its lane, then simulate the lanes at the
// round barrier. The staged pipeline splits that work so consecutive
// batches occupy different stages concurrently, PALM-style (batch-parallel
// trees synchronize on per-batch barriers instead of per-node locks):
//
//   intake/batching (control) ─▶ resolve (coalesce + SIMD color gather +
//   conflict histogram, any worker) ─▶ execute (append to the owning
//   lane's EngineSession) ─▶ [round barrier] drain (simulate lanes) ─▶
//   reply (control assembles responses in batch-id order)
//
// Determinism is by construction, not by luck:
//
//   * Stage handoff is SPSC rings of batch tokens. The control plane is
//     the only producer; each ring has exactly one consumer. Token i is
//     resolved by worker i mod P (any order is fine — resolution is a
//     pure function of the batch), but lane rings are drained strictly
//     front-first, and a lane token is consumed only once its `ready`
//     flag is set. Every lane therefore observes its batches in exactly
//     the canonical cut order at ANY worker count.
//   * Execution is EngineSession (engine/session.hpp), as on the inline
//     executor: a lane's result is a pure function of the (colors,
//     arrival) sequence fed to it, healthy or faulted. Both executors
//     share the resolve step and receive the same cut sequence from the
//     same control plane; test_serve_pipeline holds 1/2/8-worker runs
//     bit-identical to the inline executor, the differential oracle.
//   * Worker count moves wall-clock only. Nothing any worker computes
//     feeds back into control-plane decisions mid-round; the round
//     barrier (close_round) is the only synchronization point at which
//     control reads worker output.
//
// Stage-attribution counters (nanoseconds per stage, barrier wait,
// batches in flight) accumulate in the runner and export via stats() into
// ServeMetrics' "pipeline" section — the only part of a pipelined report
// that is not bit-identical across worker counts, since it measures wall
// time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "pmtree/engine/engine.hpp"
#include "pmtree/engine/session.hpp"
#include "pmtree/mapping/mapping.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::serve {

struct PipelineOptions {
  /// Pipeline worker threads. 0 executes cut batches inline on the
  /// control thread (the oracle); any value >= 1 hands them to the staged
  /// pipeline. Results are bit-identical at every setting — the count
  /// only changes wall-clock (workers == 1 is the pipeline's own
  /// sequential mode, still byte-equal to the oracle).
  unsigned workers = 0;
  /// Capacity of each handoff ring, in batch tokens (rounded up to a
  /// power of two, minimum 2). Bounds how much of a round the consumers
  /// see before the round barrier: once a ring fills, further cuts park
  /// in a control-plane overflow queue and are pumped into the ring as
  /// the consumer catches up — the Marchal/Sinnen/Vivien
  /// memory-vs-makespan dial, without ever blocking the tick loop.
  std::size_t queue_depth = 256;

  [[nodiscard]] bool enabled() const noexcept { return workers > 0; }
};

/// One batch riding the pipeline. Created by the control plane at cut
/// time, filled by the resolve stage, consumed by the execute stage and
/// finally by reply-side assembly. Tokens live in a deque owned by the
/// runner — stable addresses, so stages pass raw pointers.
struct BatchToken {
  FormedBatch batch;            ///< nodes raw at cut; coalesced by resolve
  std::uint32_t lane = 0;       ///< global execution lane
  std::uint32_t tenant = 0;     ///< forest tenant id (0 for Server)
  /// Per-batch mapping override (skew-adaptive migration): when set, the
  /// resolve stage colors against this mapping instead of the lane's.
  /// Points at a MigrationPlanner epoch snapshot with the same module
  /// count as the lane mapping; must outlive the round. nullptr keeps
  /// the lane mapping (the static default).
  const TreeMapping* mapping = nullptr;
  std::vector<Color> colors;    ///< resolved colors of batch.nodes
  std::uint32_t max_conflicts = 0;  ///< peak per-module load in the batch
  /// Real-memory traffic of this batch (lane backend set): the resolve
  /// worker loads the batch's payloads from the arenas right after the
  /// coalesce, and assembly folds these order-invariant totals into the
  /// report — identical to the inline executor's touches.
  mem::TouchStats mem;
  /// Resolve -> execute handoff: set (release) once colors/decomposition
  /// are final; lane owners consume tokens only after observing it
  /// (acquire). This is the per-token ordering edge that keeps lane feeds
  /// canonical while resolution itself runs out of order.
  std::atomic<bool> ready{false};
};

/// Single-producer single-consumer ring of token pointers. The producer
/// is always the control plane; the consumer is one worker. Lock-free;
/// the runner's condvar only parks/wakes threads, it never guards ring
/// state.
class TokenRing {
 public:
  explicit TokenRing(std::size_t capacity);

  /// Vector-growth support only — rings are moved exclusively during
  /// single-threaded runner construction, never while threads run.
  TokenRing(TokenRing&& other) noexcept
      : slots_(std::move(other.slots_)),
        mask_(other.mask_),
        head_(other.head_.load(std::memory_order_relaxed)),
        tail_(other.tail_.load(std::memory_order_relaxed)) {}

  /// Producer side. False when full (caller waits on the runner signal).
  bool push(BatchToken* token) noexcept;
  /// Consumer side: front token, or nullptr when empty.
  [[nodiscard]] BatchToken* front() const noexcept;
  void pop() noexcept;

 private:
  std::vector<BatchToken*> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::size_t> head_{0};  ///< consumer cursor
  std::atomic<std::size_t> tail_{0};  ///< producer cursor
};

/// One execution lane: a Server replica or a Forest tenant-lane, run as an
/// EngineSession over `mapping` with `options` (fault plan included).
struct LaneSpec {
  const TreeMapping* mapping = nullptr;
  engine::EngineOptions options;
  /// Optional real-memory backend (not owned; must outlive the runner).
  /// When set, the resolve stage touches each batch's payloads — genuine
  /// parallel loads from the per-module arenas — into BatchToken::mem.
  /// Observation only; resolution and execution are unaffected.
  const mem::MemoryBackend* memory = nullptr;
};

class StagedRunner {
 public:
  /// Spawns `options.workers` (>= 1) parked worker threads. Lane l is
  /// owned by worker l mod P; token i is resolved by worker i mod P.
  /// Mappings (and fault plans) must outlive the runner.
  StagedRunner(std::vector<LaneSpec> lanes, const PipelineOptions& options);
  ~StagedRunner();

  StagedRunner(const StagedRunner&) = delete;
  StagedRunner& operator=(const StagedRunner&) = delete;

  /// Starts a fresh run: forgets all fed batches and results. Stats
  /// accumulate across runs (like every other registry instrument).
  void begin_run();

  /// Hands one freshly cut batch to the pipeline (control plane only).
  /// Never blocks: full rings spill into per-ring overflow queues that
  /// the control plane pumps as consumers advance. `mapping` (optional)
  /// is the batch's epoch-mapping override — see BatchToken::mapping.
  void cut(FormedBatch batch, std::uint32_t lane, std::uint32_t tenant = 0,
           const TreeMapping* mapping = nullptr);

  /// Round barrier: waits until every cut batch is resolved, executed,
  /// and every lane's cumulative result is drained. After it returns,
  /// tokens() and result() are safe to read from the control plane.
  void close_round();

  /// This round's tokens in cut order (valid between close_round and
  /// next_round). Assembly moves the batches out. Token storage is
  /// pooled: begin_run()/next_round() reset the count but keep the
  /// BatchToken objects — and their vector capacities — for later cuts,
  /// so a long-lived runner stops allocating per batch.
  [[nodiscard]] std::size_t token_count() const noexcept {
    return token_count_;
  }
  [[nodiscard]] BatchToken& token(std::size_t i) noexcept {
    return tokens_[i];
  }

  /// Lane `lane`'s cumulative EngineResult over every batch fed since
  /// begin_run — exactly what the inline executor's drain produces.
  [[nodiscard]] const engine::EngineResult& result(std::uint32_t lane) const {
    return results_[lane];
  }

  /// Opens the next retry round: clears the token list, keeps sessions
  /// (rounds accumulate; lanes replay cumulatively, extending — never
  /// rewriting — earlier completions).
  void next_round();

  [[nodiscard]] std::size_t lane_count() const noexcept {
    return lanes_.size();
  }
  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Stage attribution snapshot: {"workers","rounds","batches",
  /// "max_in_flight","stage_ns":{"control","resolve","execute","drain",
  /// "barrier"},"max_batch_conflicts","simd_kernel"}.
  [[nodiscard]] Json stats() const;

  /// Control-plane bookkeeping: adds tick-loop nanoseconds to the intake
  /// stage's bucket (measured by the callers around their tick loops).
  void add_control_ns(std::uint64_t ns) noexcept {
    control_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

 private:
  void worker_loop(unsigned me);
  bool work_once(unsigned me, std::uint64_t& drained_upto);
  void resolve(BatchToken& token);
  void bump() noexcept;
  /// Control plane only: tops rings up from their overflow queues.
  /// Returns true when any token moved (consumers may need a wake).
  bool pump();

  std::vector<LaneSpec> lanes_;
  std::vector<engine::EngineSession> sessions_;   ///< one per lane
  std::vector<engine::EngineResult> results_;     ///< one per lane
  std::deque<BatchToken> tokens_;                 ///< pooled token storage
  std::size_t token_count_ = 0;                   ///< live tokens this round

  std::vector<TokenRing> resolve_rings_;  ///< one per worker
  std::vector<TokenRing> lane_rings_;     ///< one per lane
  /// Control-plane spill for full rings, FIFO per ring (resolver rings
  /// first, then lane rings — same indexing as the ring vectors). Only
  /// the control plane touches these; tokens enter a ring in cut order.
  std::vector<std::deque<BatchToken*>> resolve_overflow_;
  std::vector<std::deque<BatchToken*>> lane_overflow_;
  std::size_t overflowed_ = 0;  ///< tokens currently parked in overflow

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t signal_ = 0;      ///< bumped on every state change
  std::size_t done_workers_ = 0;  ///< workers finished draining this round
  bool shutdown_ = false;

  std::atomic<std::uint64_t> closed_round_{0};  ///< last round closed
  std::atomic<std::uint64_t> cut_round_{0};     ///< tokens cut this round
  std::uint64_t round_ = 0;                     ///< control-plane round no.
  std::uint64_t cut_seq_ = 0;                   ///< tokens cut, ever
  /// Wake batching: cuts since the last worker wake, and how many workers
  /// are parked. On single-CPU hosts (eager_wake_ == false) mid-round
  /// wakes are skipped entirely — context switches there only interleave
  /// the same total work — and the round barrier does all the waking.
  std::uint64_t cuts_since_wake_ = 0;
  std::atomic<unsigned> idle_workers_{0};
  bool eager_wake_ = true;

  // Stage attribution (cumulative across runs; wall time, so the one
  // deliberately non-deterministic part of a pipelined report).
  std::atomic<std::uint64_t> control_ns_{0};
  std::atomic<std::uint64_t> resolve_ns_{0};
  std::atomic<std::uint64_t> execute_ns_{0};
  std::atomic<std::uint64_t> drain_ns_{0};
  std::atomic<std::uint64_t> barrier_ns_{0};
  std::atomic<std::uint64_t> executed_round_{0};  ///< fed tokens this round
  std::atomic<std::uint32_t> max_conflicts_{0};
  std::uint64_t batches_total_ = 0;
  std::uint64_t rounds_total_ = 0;
  std::uint64_t max_in_flight_ = 0;
};

}  // namespace pmtree::serve
