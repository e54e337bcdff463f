// StagedRunner: the pipelined executor of the serve control plane
// (control_plane.hpp). The pipeline changes WHERE batch work executes —
// resolve/execute stages on the worker pool — never WHAT the control plane
// decides; the inline executor runs the same resolve_batch on the control
// thread, and test_serve_pipeline holds the two bit-identical at 1/2/8
// workers.

#include "pmtree/serve/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "control_plane.hpp"
#include "pmtree/util/simd.hpp"

namespace pmtree::serve {
namespace {

using Clock = std::chrono::steady_clock;
using detail::ns_since;

std::size_t ceil_pow2(std::size_t n) {
  std::size_t c = 2;
  while (c < n) c *= 2;
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// TokenRing

TokenRing::TokenRing(std::size_t capacity)
    : slots_(ceil_pow2(std::max<std::size_t>(capacity, 2))),
      mask_(slots_.size() - 1) {}

bool TokenRing::push(BatchToken* token) noexcept {
  const std::size_t tail = tail_.load(std::memory_order_relaxed);
  if (tail - head_.load(std::memory_order_acquire) == slots_.size()) {
    return false;
  }
  slots_[tail & mask_] = token;
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

BatchToken* TokenRing::front() const noexcept {
  const std::size_t head = head_.load(std::memory_order_relaxed);
  if (tail_.load(std::memory_order_acquire) == head) return nullptr;
  return slots_[head & mask_];
}

void TokenRing::pop() noexcept {
  head_.store(head_.load(std::memory_order_relaxed) + 1,
              std::memory_order_release);
}

// ---------------------------------------------------------------------------
// StagedRunner

StagedRunner::StagedRunner(std::vector<LaneSpec> lanes,
                           const PipelineOptions& options)
    : lanes_(std::move(lanes)) {
  const unsigned P = std::max(1u, options.workers);
  sessions_.reserve(lanes_.size());
  for (const LaneSpec& lane : lanes_) {
    assert(lane.mapping != nullptr);
    sessions_.emplace_back(*lane.mapping, lane.options);
  }
  results_.resize(lanes_.size());
  resolve_rings_.reserve(P);
  for (unsigned w = 0; w < P; ++w) resolve_rings_.emplace_back(options.queue_depth);
  lane_rings_.reserve(lanes_.size());
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    lane_rings_.emplace_back(options.queue_depth);
  }
  resolve_overflow_.resize(P);
  lane_overflow_.resize(lanes_.size());
  // With one hardware thread, a mid-round wake cannot add parallelism —
  // it only slices the same total work across more context switches — so
  // all waking is deferred to the round barrier there.
  eager_wake_ = std::thread::hardware_concurrency() > 1;
  workers_.reserve(P);
  for (unsigned w = 0; w < P; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

StagedRunner::~StagedRunner() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    ++signal_;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void StagedRunner::bump() noexcept {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++signal_;
  }
  cv_.notify_all();
}

void StagedRunner::begin_run() {
  // Workers are quiescent here: the previous run's final close_round
  // barrier (or construction) parked them, and the mutex handshake that
  // reported done_workers_ ordered their session/result writes before
  // these control-plane accesses.
  for (engine::EngineSession& session : sessions_) session.clear();
  for (engine::EngineResult& result : results_) result = engine::EngineResult();
  next_round();
}

bool StagedRunner::pump() {
  if (overflowed_ == 0) return false;
  bool moved = false;
  const auto top_up = [&](TokenRing& ring, std::deque<BatchToken*>& spill) {
    while (!spill.empty() && ring.push(spill.front())) {
      spill.pop_front();
      overflowed_ -= 1;
      moved = true;
    }
  };
  for (std::size_t l = 0; l < lane_rings_.size(); ++l) {
    top_up(lane_rings_[l], lane_overflow_[l]);
  }
  for (std::size_t w = 0; w < resolve_rings_.size(); ++w) {
    top_up(resolve_rings_[w], resolve_overflow_[w]);
  }
  return moved;
}

void StagedRunner::cut(FormedBatch batch, std::uint32_t lane,
                       std::uint32_t tenant, const TreeMapping* mapping) {
  assert(lane < lanes_.size());
  assert(mapping == nullptr ||
         mapping->num_modules() == lanes_[lane].mapping->num_modules());
  // Pooled token storage (deque: element addresses are stable). A reused
  // token keeps its colors capacity from earlier rounds; its ready flag
  // is lowered again before any ring publishes the pointer.
  if (token_count_ == tokens_.size()) tokens_.emplace_back();
  BatchToken& token = tokens_[token_count_];
  token_count_ += 1;
  token.batch = std::move(batch);
  token.lane = lane;
  token.tenant = tenant;
  token.mapping = mapping;
  token.max_conflicts = 0;
  token.mem = mem::TouchStats{};
  token.ready.store(false, std::memory_order_relaxed);

  batches_total_ += 1;
  const std::uint64_t in_flight =
      token_count_ - executed_round_.load(std::memory_order_relaxed);
  max_in_flight_ = std::max(max_in_flight_, in_flight);

  // FIFO through the overflow queue: once any token of a ring has
  // spilled, later tokens spill behind it even if the ring has room.
  const auto push_or_spill = [&](TokenRing& ring,
                                 std::deque<BatchToken*>& spill) {
    if (!spill.empty() || !ring.push(&token)) {
      spill.push_back(&token);
      overflowed_ += 1;
    }
  };
  const unsigned resolver =
      static_cast<unsigned>(cut_seq_++ % resolve_rings_.size());
  // Lane ring first: the lane owner's consumption is ready-gated, so the
  // token parks there inert until the resolver flips it. Pushing the
  // resolve ring last means a token is never resolvable before its lane
  // position exists.
  push_or_spill(lane_rings_[lane], lane_overflow_[lane]);
  push_or_spill(resolve_rings_[resolver], resolve_overflow_[resolver]);
  cut_round_.fetch_add(1, std::memory_order_release);

  // Wake batching: consumers that are awake poll their rings themselves;
  // parked ones are woken at most once per kWakeBatch cuts (and not at
  // all mid-round on single-CPU hosts — the barrier wakes everyone).
  cuts_since_wake_ += 1;
  if (eager_wake_) {
    pump();
    constexpr std::uint64_t kWakeBatch = 16;
    if (cuts_since_wake_ >= kWakeBatch &&
        idle_workers_.load(std::memory_order_relaxed) > 0) {
      cuts_since_wake_ = 0;
      bump();
    }
  }
}

void StagedRunner::close_round() {
  const auto start = Clock::now();
  round_ += 1;
  rounds_total_ += 1;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Release-ordered via the mutex AND the atomic store: a worker that
    // observes the new closed_round_ also observes every ring push above
    // (and the final cut_round_ count).
    closed_round_.store(round_, std::memory_order_release);
    ++signal_;
  }
  cv_.notify_all();
  cuts_since_wake_ = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (done_workers_ != workers_.size()) {
    // Snapshot before pumping: ring room a consumer frees after this point
    // comes with a signal bump, so the wait below cannot miss it (a
    // snapshot taken after the pump could, leaving the overflow stranded).
    const std::uint64_t seen = signal_;
    lock.unlock();
    const bool moved = pump();  // rings are SPSC; producer side needs no lock
    lock.lock();
    if (moved) {
      ++signal_;
      cv_.notify_all();
      continue;
    }
    cv_.wait(lock, [&] {
      return done_workers_ == workers_.size() || signal_ != seen;
    });
  }
  assert(overflowed_ == 0);
  barrier_ns_.fetch_add(ns_since(start), std::memory_order_relaxed);
}

void StagedRunner::next_round() {
  // Safe without worker synchronization: close_round's barrier (or, for
  // begin_run, construction) guarantees every ring is empty and every
  // worker is parked with no token pointer in hand.
  token_count_ = 0;  // keep pooled token storage
  executed_round_.store(0, std::memory_order_relaxed);
  cut_round_.store(0, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  done_workers_ = 0;
}

void StagedRunner::resolve(BatchToken& token) {
  // The per-batch kernels the pipeline lifts off the control plane —
  // coalesce, arena touch, SIMD color gather — plus the SIMD conflict
  // histogram for the stage stats. All pure functions of the batch, so
  // resolution order across workers is irrelevant.
  const LaneSpec& lane = lanes_[token.lane];
  token.mem = detail::resolve_batch(token.batch, token.mapping, lane,
                                    token.colors);
  const std::vector<Node>& nodes = token.batch.nodes;
  if (!nodes.empty()) {
    const std::uint32_t modules = lane.mapping->num_modules();
    thread_local std::vector<std::uint32_t> counts;
    counts.resize(modules);
    simd::conflict_histogram(token.colors.data(), token.colors.size(),
                             counts.data(), modules);
    std::uint32_t max = 0;
    for (std::uint32_t m = 0; m < modules; ++m) max = std::max(max, counts[m]);
    token.max_conflicts = max;
    std::uint32_t seen = max_conflicts_.load(std::memory_order_relaxed);
    while (max > seen && !max_conflicts_.compare_exchange_weak(
                             seen, max, std::memory_order_relaxed)) {
    }
  }
}

bool StagedRunner::work_once(unsigned me, std::uint64_t& drained_upto) {
  bool progress = false;
  const unsigned P = static_cast<unsigned>(resolve_rings_.size());

  // Resolve stage: drain this worker's share of freshly cut tokens.
  // Timing wraps the whole drain (one clock pair per burst, not per
  // token); lane owners waiting on ready flags are woken by the single
  // bump after the stage loops.
  if (resolve_rings_[me].front() != nullptr) {
    const auto start = Clock::now();
    while (BatchToken* token = resolve_rings_[me].front()) {
      resolve_rings_[me].pop();
      // Touch the NEXT batch's node array while this one resolves: the
      // batches were formed a whole round ago, so every resolve begins
      // with a DRAM-cold read that prefetching hides almost entirely.
      if (const BatchToken* next = resolve_rings_[me].front()) {
        const char* p =
            reinterpret_cast<const char*>(next->batch.nodes.data());
        const char* const end = p + next->batch.nodes.size() * sizeof(Node);
        for (; p < end; p += 64) __builtin_prefetch(p, 0, 1);
      }
      resolve(*token);
      token->ready.store(true, std::memory_order_release);
      progress = true;
    }
    resolve_ns_.fetch_add(ns_since(start), std::memory_order_relaxed);
  }

  // Execute stage: feed owned lanes front-first; a lane ring's head is
  // consumed only once resolved, which pins the feed order to cut order.
  std::uint64_t executed = 0;
  for (std::size_t l = me; l < lane_rings_.size(); l += P) {
    if (lane_rings_[l].front() == nullptr) continue;
    const auto start = Clock::now();
    while (BatchToken* token = lane_rings_[l].front()) {
      if (!token->ready.load(std::memory_order_acquire)) break;
      sessions_[l].feed_resolved(token->colors, token->batch.formed_cycle);
      lane_rings_[l].pop();
      executed += 1;
      progress = true;
    }
    execute_ns_.fetch_add(ns_since(start), std::memory_order_relaxed);
  }
  if (executed != 0) {
    executed_round_.fetch_add(executed, std::memory_order_release);
  }
  if (progress) bump();  // lane owners / the pumping control may be parked

  // Drain at the round barrier: once the round is closed and every cut
  // token of the round has been executed (which implies this worker's
  // rings are empty AND the control plane's overflow queues are fully
  // delivered), simulate the owned lanes' cumulative feeds.
  const std::uint64_t closed = closed_round_.load(std::memory_order_acquire);
  if (closed > drained_upto &&
      executed_round_.load(std::memory_order_acquire) ==
          cut_round_.load(std::memory_order_acquire)) {
    const auto start = Clock::now();
    for (std::size_t l = me; l < lane_rings_.size(); l += P) {
      assert(lane_rings_[l].front() == nullptr);
      results_[l] = sessions_[l].drain();
    }
    drain_ns_.fetch_add(ns_since(start), std::memory_order_relaxed);
    drained_upto = closed;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_workers_ += 1;
      ++signal_;
    }
    cv_.notify_all();
    progress = true;
  }
  return progress;
}

void StagedRunner::worker_loop(unsigned me) {
  std::uint64_t drained_upto = 0;
  for (;;) {
    if (work_once(me, drained_upto)) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    if (shutdown_) return;
    const std::uint64_t seen = signal_;
    lock.unlock();
    // Re-check after snapshotting the signal: any state change since the
    // snapshot bumps signal_, so the wait below cannot miss it.
    if (work_once(me, drained_upto)) continue;
    lock.lock();
    idle_workers_.fetch_add(1, std::memory_order_relaxed);
    cv_.wait(lock, [&] { return shutdown_ || signal_ != seen; });
    idle_workers_.fetch_sub(1, std::memory_order_relaxed);
    if (shutdown_) return;
  }
}

Json StagedRunner::stats() const {
  Json stage = Json::object();
  stage.set("control", Json(control_ns_.load(std::memory_order_relaxed)));
  stage.set("resolve", Json(resolve_ns_.load(std::memory_order_relaxed)));
  stage.set("execute", Json(execute_ns_.load(std::memory_order_relaxed)));
  stage.set("drain", Json(drain_ns_.load(std::memory_order_relaxed)));
  stage.set("barrier", Json(barrier_ns_.load(std::memory_order_relaxed)));

  Json j = Json::object();
  j.set("workers", Json(std::uint64_t{workers_.size()}));
  j.set("lanes", Json(std::uint64_t{lanes_.size()}));
  j.set("rounds", Json(rounds_total_));
  j.set("batches", Json(batches_total_));
  j.set("max_in_flight", Json(max_in_flight_));
  j.set("stage_ns", stage);
  j.set("max_batch_conflicts",
        Json(std::uint64_t{max_conflicts_.load(std::memory_order_relaxed)}));
  j.set("simd_kernel", Json(simd::active_kernel()));
  return j;
}

}  // namespace pmtree::serve
