// Server: the concurrent request front-end of pmtree (DESIGN.md §11).
//
// The rest of the library answers "what does one access cost under a
// mapping"; the server answers the system question on top of it: what
// latency does a *stream* of concurrent clients observe when their
// requests are admission-controlled, dynamically batched into template
// instances, and fed through the cycle-accurate memory engine? The shape
// is an inference-serving front-end transplanted onto the paper's machine
// model:
//
//   clients ──submit()──▶ MPSC inboxes ─▶ canonical order ─▶ tick loop
//                                             (admission ▸ batching)
//                                                  │ batches
//                                                  ▼
//                                    replicas × EngineSession (executor)
//
// run() is a simulation on the engine's cycle clock. Submitted requests
// are drained from the striped inboxes and stably sorted by
// (submit_cycle, client, seq) — the canonical order, a pure function of
// the submitted *set*, so results never depend on which thread delivered
// a request first. The control plane then ticks every `tick_cycles`
// cycles, each tick running a fixed phase order:
//
//   expire  — drop queued requests whose deadline budget has elapsed;
//   promote — move blocked callers into freed queue slots (FIFO);
//   intake  — offer newly arrived requests to admission control;
//   batch   — let the BatchFormer cut zero or more batches;
//   observe — record queue-depth gauges for this tick.
//
// Each formed batch is one parallel memory access, assigned round-robin
// (batch id mod replicas) to a memory-system replica; every replica is an
// EngineSession fed its batches with their dispatch ticks as arrivals.
// The tick loop is the single-threaded control plane Server shares with
// Forest (a Server is its one-tenant case); it records each cut batch in
// the batch executor, whose workers resolve the cuts in chunks while the
// loop goes on ticking: they dedup each batch, feed it to the slot's
// epoch controller in cut order, and color it. At the round barrier the
// executor finishes the resolves, then feeds and drains every replica
// (one thread per replica at most), over `workers` threads — or
// `pipeline.workers` threads with stage attribution (PipelineOptions).
// Thread counts therefore affect wall-clock only: responses, batches and
// metrics are bit-identical at any count (tested request-for-request at
// 1/2/8).
//
// With a RetryPolicy the pipeline above becomes one *round* of several:
// after assembly, completions that overstayed the attempt timeout are
// discarded and re-enter intake at the cycle the caller would resend
// (timeout + capped exponential backoff), and the tick loop / replica
// execution repeat until a round produces no retries. Faults injected via
// EngineOptions::faults (fault/plan.hpp) are what make retries fire in
// practice: fail-stopped modules reroute, slowed modules stall, residency
// inflates past the timeout, and the retry lands on a later batch —
// usually after the fault timeline's reroute table has taken over the dead
// modules' traffic. All of it stays on the control plane's clock, so
// determinism is unchanged.
//
// Graceful shutdown is the run() contract itself: every request submitted
// before run() reaches a terminal status (kOk, kShed or kExpired) —
// nothing is silently dropped — and BatchPolicy::max_wait_cycles bounds
// how long any admitted request can sit unbatched, so the loop provably
// drains.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pmtree/engine/engine.hpp"
#include "pmtree/engine/metrics.hpp"
#include "pmtree/mapping/mapping.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/adaptive.hpp"
#include "pmtree/serve/admission.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/serve/metrics.hpp"
#include "pmtree/serve/migration.hpp"
#include "pmtree/serve/mutation.hpp"
#include "pmtree/serve/pipeline.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/util/json.hpp"

namespace pmtree::serve {

/// Per-request retry with capped exponential backoff, judged on the
/// engine's simulated clock. After each serving round the server inspects
/// every freshly completed request: if its memory-system residency
/// (completion - dispatch) exceeded `attempt_timeout_cycles` and it has
/// attempts left, the completion is discarded and the request re-enters
/// intake at dispatch + timeout + backoff(attempt) — the cycle the caller
/// would have given up and resent. Backoff doubles from `backoff_base_
/// cycles` per retry, capped at `backoff_cap_cycles`. The original
/// submit_cycle and deadline ride along unchanged, so the existing
/// deadline machinery is the retry budget: a retry that lands past the
/// deadline is dead on arrival (kExpired), never served twice.
///
/// Retries run in the single-threaded control plane between replica
/// rounds; responses stay bit-identical at any worker count. Cycle
/// arithmetic saturates, and a resend past kClockHorizon (request.hpp)
/// never happens: that attempt's completion stands.
struct RetryPolicy {
  /// Extra attempts per request. 0 disables retries entirely (the server
  /// then behaves exactly as the single-round pipeline).
  std::uint32_t max_retries = 0;
  /// A completed attempt whose completion - dispatch exceeds this budget
  /// is treated as timed out and retried. 0 disables.
  std::uint64_t attempt_timeout_cycles = 0;
  std::uint64_t backoff_base_cycles = 8;
  std::uint64_t backoff_cap_cycles = 256;

  [[nodiscard]] bool enabled() const noexcept {
    return max_retries > 0 && attempt_timeout_cycles > 0;
  }
  /// Backoff before retry number `attempt` (1-based): base doubled
  /// attempt-1 times, saturating at the cap.
  [[nodiscard]] std::uint64_t backoff(std::uint32_t attempt) const noexcept {
    std::uint64_t b = backoff_base_cycles;
    for (std::uint32_t i = 1; i < attempt && b < backoff_cap_cycles; ++i) {
      b = b > backoff_cap_cycles / 2 ? backoff_cap_cycles : b * 2;
    }
    return b < backoff_cap_cycles ? b : backoff_cap_cycles;
  }
  /// The cycle the caller resends retry number `attempt` of a request
  /// dispatched at `dispatch`: dispatch + timeout + backoff(attempt),
  /// saturating at UINT64_MAX.
  [[nodiscard]] std::uint64_t resend_cycle(std::uint64_t dispatch,
                                           std::uint32_t attempt) const noexcept {
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    const std::uint64_t wait = backoff(attempt);
    if (attempt_timeout_cycles > kMax - wait) return kMax;
    const std::uint64_t delay = attempt_timeout_cycles + wait;
    return dispatch > kMax - delay ? kMax : dispatch + delay;
  }
};

/// The options that serve one slot: one tree's mapping and the lanes that
/// run its batches, which are a Server's replicas or one Forest tenant's
/// lanes (DESIGN.md §11, §13). ServerOptions and TenantOptions inherit
/// it. The Server constructor and Forest::add_tenant throw
/// std::invalid_argument, in every build type, for a slot the control
/// plane cannot serve:
///   * migration together with adaptive selection, or either of them
///     under a non-empty `engine.faults` plan (the fault reroute timeline
///     owns the color space) or with a dyn binding;
///   * an adaptive candidate that is null or does not color the mapping's
///     tree with its module count;
///   * a migration `subtree_level` at or past the tree's last level;
///   * a `memory` backend over fewer levels than the mapping's tree;
///   * a `batch.max_wait_cycles` past kClockHorizon (request.hpp).
struct SlotOptions {
  /// The slot's admission quota: queue bound + overflow policy.
  AdmissionOptions admission;
  /// When the slot cuts a batch, and how many nodes one batch takes.
  BatchPolicy batch;
  /// Retries of the slot's timed-out attempts (RetryPolicy above).
  RetryPolicy retry;
  /// Engine knobs of every lane of the slot. `engine.faults`
  /// (fault/plan.hpp) injects one fault schedule into the slot's lanes
  /// and no others; the serve layer folds the resulting reroute/stall
  /// counters into the slot's metrics and, with a RetryPolicy, turns
  /// fault-inflated residencies into retries. The plan is not owned: it
  /// must outlive the server or forest and keep its faults, since it is
  /// read when the server is built or the tenant is added and again by
  /// every run().
  engine::EngineOptions engine;
  /// Skew-adaptive remapping (migration.hpp / DESIGN.md §15): a
  /// MigrationPlanner observes every cut batch, in cut order, and
  /// re-colors hot subtrees onto cold modules at epoch boundaries; each
  /// batch resolves against its epoch's MigratedMapping. Responses stay
  /// bit-identical at any worker count, pipeline workers included;
  /// disabled (default) leaves every code path byte-identical to the
  /// static mapping.
  MigrationPolicy migration;
  /// Runtime mapping selection (adaptive.hpp / DESIGN.md §17): an
  /// AdaptiveSelector scores every candidate against each cut batch, in
  /// cut order, and switches the slot's mapping at epoch boundaries when
  /// one strictly wins — the R10 COLOR-vs-LABEL-TREE trade-off decided by
  /// measuring the slot's own traffic. Responses stay bit-identical at
  /// any worker count, pipeline workers included.
  AdaptivePolicy adaptive;
  /// Real per-module memory arenas (mem/arena.hpp / DESIGN.md §17; not
  /// owned, must outlive the run). Every cut batch's deduped node payloads
  /// are loaded from them by whichever thread resolves the batch, and
  /// accounted in the slot's report and its "memory" metrics section.
  /// Observation only: responses are bit-identical with the backend on or
  /// off. A backend built over a dyn binding's IncrementalColorer holds
  /// every node of its envelope.
  const mem::MemoryBackend* memory = nullptr;
};

/// A Server's options: its one slot's (SlotOptions) plus the knobs of the
/// serving machine around it.
struct ServerOptions : SlotOptions {
  /// Admission tick period in engine cycles (0 behaves as 1; past
  /// kClockHorizon the constructor throws std::invalid_argument). Requests
  /// are only admitted / batched on tick boundaries — the batching latency
  /// any request pays is at most tick_cycles of rounding plus its queue
  /// wait.
  std::uint64_t tick_cycles = 4;
  /// Independent memory-system replicas; batch b executes on replica
  /// b mod replicas (0 behaves as 1). Replicas model scale-out of the
  /// memory system itself: each runs the full module array.
  std::uint32_t replicas = 1;
  /// Batch executor threads while `pipeline.workers` is 0 (0 = hardware
  /// concurrency). Affects wall-clock only; results are bit-identical at
  /// any count.
  unsigned workers = 1;
  /// Stage attribution (pipeline.hpp). `pipeline.workers >= 1` runs the
  /// batch executor on that many threads instead of `workers` and adds
  /// the wall-time "pipeline" metrics section; 0 (default) adds none.
  /// Same executor either way, faulted or not, so responses are
  /// bit-identical.
  PipelineOptions pipeline;
  /// Read-write serving (mutation.hpp / DESIGN.md §16). When bound to a
  /// dyn::DynamicTree + IncrementalColorer, Insert/Erase requests apply
  /// PALM-style at the batch-cut barrier — a control-plane decision, so
  /// responses and the mutation log stay bit-identical at any worker
  /// count, pipeline workers included. The constructor throws
  /// std::invalid_argument for a binding DynBinding rejects. Disabled
  /// (default) leaves every code path byte-identical to the read-only
  /// server.
  DynBinding dyn;
};

/// Everything one run() observed, in canonical / dispatch order.
struct ServeReport {
  std::vector<Response> responses;      ///< canonical request order
  std::vector<FormedBatch> batches;     ///< dispatch (batch id) order
  std::vector<engine::EngineResult> replicas;  ///< per-replica trajectory
  std::uint64_t ticks = 0;              ///< admission ticks executed
  std::uint64_t rounds = 0;             ///< serving rounds (1 + retry waves)
  std::uint64_t final_cycle = 0;        ///< last completion / resolution
  /// Mutation log, in apply (batch barrier) order; empty for read-only
  /// runs. One record per writer, including rejected and deduped ones.
  std::vector<MutationRecord> mutations;
  /// Real-memory traffic over all cut batches; all-zero unless
  /// ServerOptions::memory was set. Order-invariant totals, identical at
  /// every thread count.
  mem::TouchStats memory;
  Json metrics;                         ///< ServeMetrics::summary()

  [[nodiscard]] std::uint64_t count(RequestStatus status) const noexcept;

  /// Full report as JSON: the metrics summary plus scalar run facts and a
  /// per-response table.
  [[nodiscard]] Json to_json() const;
};

namespace detail {
class ControlPlane;
}  // namespace detail

class Server {
 public:
  /// `mapping` must outlive the server. Instruments land in the server's
  /// own registry (see registry()) under prefix "serve" plus
  /// "serve.replicaN.*" for each replica's engine run. Throws
  /// std::invalid_argument for options the control plane cannot serve
  /// over `mapping` (see SlotOptions and DynBinding) and for a tick_cycles
  /// past kClockHorizon.
  explicit Server(const TreeMapping& mapping, ServerOptions options = {});
  ~Server();

  /// Thread-safe MPSC submission; callable concurrently from any number
  /// of client threads. Throws std::out_of_range, in every build type and
  /// with nothing queued, for a request with a node outside
  /// mapping().tree() or a submit_cycle past kClockHorizon; the vector
  /// overload checks every request before it queues any. (client, seq)
  /// must be unique per run and submit_cycle nondecreasing per client,
  /// which every sane client satisfies by construction.
  void submit(Request request);
  void submit(std::vector<Request> requests);

  /// Drains every submitted request to a terminal status and returns the
  /// full report. Quiesce first: run() must not race concurrent submit()
  /// calls — the graceful-shutdown contract is "stop submitting, then
  /// run() resolves everything in flight". May be called repeatedly; each
  /// run consumes the requests submitted since the previous one. Throws
  /// std::overflow_error, at every thread count, when the tick loop
  /// reaches a tick past UINT64_MAX - kClockHorizon (request.hpp), before
  /// anything is cut there; the run's requests are consumed.
  [[nodiscard]] ServeReport run();

  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const TreeMapping& mapping() const noexcept {
    return mapping_;
  }
  /// The registry holding serve.* and serve.replicaN.* instruments,
  /// cumulative across run() calls.
  [[nodiscard]] const engine::MetricsRegistry& registry() const noexcept {
    return registry_;
  }

 private:
  const TreeMapping& mapping_;
  ServerOptions options_;
  engine::MetricsRegistry registry_;
  /// Inboxes, tick loop and batch executor (src/serve/control_plane.hpp);
  /// stage attribution accumulates there across run() calls.
  std::unique_ptr<detail::ControlPlane> plane_;
};

}  // namespace pmtree::serve
