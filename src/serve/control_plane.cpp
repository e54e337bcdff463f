#include "control_plane.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <stop_token>
#include <thread>
#include <tuple>
#include <utility>

#include "pmtree/engine/session.hpp"
#include "pmtree/util/parallel.hpp"

namespace pmtree::serve::detail {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kMaxCycle = std::numeric_limits<std::uint64_t>::max();
/// The last tick the loop may cut at: it leaves kClockHorizon cycles for
/// the batches cut there to complete (request.hpp).
constexpr std::uint64_t kLastTick = kMaxCycle - kClockHorizon;

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

/// One execution lane: a Server replica or a Forest tenant-lane, run as an
/// EngineSession over `mapping` with `options` (fault plan included), and
/// its arenas (optional; observation only).
struct LaneSpec {
  const TreeMapping* mapping = nullptr;
  engine::EngineOptions options;
  const mem::MemoryBackend* memory = nullptr;
};

/// One slot's run state.
struct Slot {
  Slot(const SlotConfig& c, engine::MetricsRegistry& registry)
      : config(&c),
        admission(c.options.admission),
        former(c.options.batch),
        metrics(registry, c.metrics_prefix) {}

  const SlotConfig* config;
  std::vector<Request> requests;  ///< canonical order; index = local id
  AdmissionController admission;
  BatchFormer former;
  ServeMetrics metrics;
  std::unique_ptr<MigrationPlanner> planner;
  std::unique_ptr<AdaptiveSelector> selector;
  std::vector<std::uint32_t> attempts;
  std::vector<char> mutation_applied;
};

/// Arms the slot's epoch controller, if any. At most one is enabled, and
/// never on a dyn slot or under a non-empty fault plan: reject_unsupported
/// has refused every other slot before the first run.
void arm_epoch_controller(Slot& s) {
  const SlotOptions& o = s.config->options;
  const TreeMapping& base = *s.config->mapping;
  if (o.migration.enabled()) {
    s.planner = std::make_unique<MigrationPlanner>(base, o.migration);
  } else if (o.adaptive.enabled()) {
    s.selector = std::make_unique<AdaptiveSelector>(base, o.adaptive);
  }
}

/// Folds a deduplicated cut batch into the slot's epoch controller and
/// returns the mapping in force after the observation.
const TreeMapping* observe_epoch(Slot& s, std::span<const Node> nodes,
                                 std::uint64_t cycle) {
  if (s.planner) {
    s.planner->observe(nodes, cycle);
    return &s.planner->current();
  }
  s.selector->observe(nodes, cycle);
  return &s.selector->current();
}

/// The batch executor, built per run (DESIGN.md §14). Each round reserves
/// its storage before its first cut; cut() records a raw batch and
/// publishes every 32nd cut as a chunk. With two or more threads, workers
/// that live for the run claim the published chunks in order and resolve
/// their cuts while the tick loop goes on cutting. A resolve dedups the
/// chunk's cuts; a chunk holding a cut whose slot has an epoch controller
/// then takes the observation turn, numbered in chunk order when the chunk
/// is published, observes those cuts in cut order and passes the turn;
/// last it colors the cuts and touches the arenas. close_round() publishes
/// the last, partial chunk and runs the workers' claim loop on the control
/// thread until no chunk is left, so one thread resolves every chunk, in
/// order, there. It then feeds and drains every lane (one thread per lane,
/// cuts in cut order). Resolving off the cut is legal: nothing the tick
/// loop reads depends on a resolve, colors depend only on the coordinate
/// and the epoch mapping the observation recorded, the turn orders the
/// observations as the cuts, and arena touches are read-only.
class Executor {
 public:
  struct Cut {
    FormedBatch batch;  ///< raw until its resolve dedups it
    std::uint32_t lane = 0;
    std::uint32_t tenant = 0;
    Slot* observer = nullptr;  ///< the slot whose controller observes it
    const TreeMapping* epoch = nullptr;  ///< nullptr: the lane's mapping
    std::size_t first_color = 0;         ///< slice of the round's colors
    mem::TouchStats mem;
  };

  Executor(const PlaneConfig& config, StageStats& stats) : stats_(stats) {
    for (const SlotConfig& c : config.slots) {
      lanes_.resize(
          std::max<std::size_t>(lanes_.size(), c.first_lane + c.lanes));
      for (std::uint32_t l = 0; l < c.lanes; ++l) {
        lanes_[c.first_lane + l] =
            LaneSpec{c.mapping, c.options.engine, c.options.memory};
      }
    }
    sessions_.reserve(lanes_.size());
    for (const LaneSpec& lane : lanes_) {
      sessions_.emplace_back(*lane.mapping, lane.options);
    }
    results_.resize(lanes_.size(), nullptr);
    lane_cuts_.resize(lanes_.size());
    threads_ = resolve_threads(config.pipeline.workers >= 1
                                   ? config.pipeline.workers
                                   : config.workers);
    if (threads_ >= 2) {
      workers_.reserve(threads_);
      for (unsigned w = 0; w < threads_; ++w) {
        workers_.emplace_back([this](std::stop_token stop) { work(stop); });
      }
    }
  }
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Sizes this round's storage for at most `max_cuts` cuts of `max_nodes`
  /// raw nodes in all, so nothing a resolve reads or writes moves while
  /// cut() appends.
  void reserve(std::size_t max_cuts, std::size_t max_nodes) {
    cuts_.reserve(max_cuts);
    colors_.resize(max_nodes);
  }

  /// Records a raw cut; `observer` is its slot when that slot has an epoch
  /// controller, else nullptr. Its raw node count bounds the deduplicated
  /// one, so the cut owns a fixed slice of the round's color buffer from
  /// here on. Every 32nd cut publishes a chunk.
  void cut(FormedBatch batch, std::uint32_t lane, std::uint32_t tenant,
           Slot* observer) {
    const std::size_t first = round_colors_;
    if (cuts_.size() == cuts_.capacity() ||
        first + batch.nodes.size() > colors_.size()) {
      throw std::logic_error("cut past the round's reserved storage");
    }
    lane_cuts_[lane].push_back(cuts_.size());
    round_colors_ += batch.nodes.size();
    chunk_observes_ = chunk_observes_ || observer != nullptr;
    cuts_.push_back(
        Cut{std::move(batch), lane, tenant, observer, nullptr, first, {}});
    if (cuts_.size() % kResolveGrain == 0) publish();
  }

  /// The round barrier. Clock pairs are per chunk of cuts (resolve, plus
  /// the turn wait of an observing chunk) and per lane (execute, drain),
  /// never per batch.
  void close_round() {
    const auto start = Clock::now();
    publish();
    std::uint64_t resolve_ns = 0;
    std::uint64_t observe_wait_ns = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (claimable()) resolve_chunk(lock);
      done_.wait(lock, [this] { return finished_ == claimed_; });
      if (failure_ != nullptr) std::rethrow_exception(failure_);
      resolve_ns = resolve_ns_;
      observe_wait_ns = observe_wait_ns_;
      resolve_ns_ = observe_wait_ns_ = 0;
      published_ = claimed_ = finished_ = turns_numbered_ = turn_ = 0;
      chunk_turns_.clear();
    }
    std::vector<LaneNs> lane_ns(lanes_.size());
    const auto lane_threads = static_cast<unsigned>(
        std::min<std::size_t>(threads_, lanes_.size()));
    parallel_chunks(lanes_.size(), lane_threads, /*grain=*/1,
                    [&](unsigned, std::uint64_t begin, std::uint64_t end) {
                      for (std::uint64_t l = begin; l < end; ++l) {
                        lane_ns[l] = run_lane(l);
                      }
                    });
    stats_.resolve_ns += resolve_ns;
    stats_.observe_wait_ns += observe_wait_ns;
    for (const LaneNs& ns : lane_ns) {
      stats_.execute_ns += ns.execute;
      stats_.drain_ns += ns.drain;
    }
    stats_.rounds += 1;
    stats_.batches += cuts_.size();
    stats_.max_in_flight = std::max<std::uint64_t>(stats_.max_in_flight,
                                                   cuts_.size());
    stats_.barrier_ns += ns_between(start, Clock::now());
  }

  /// This round's cuts in cut order (valid until next_round); assembly
  /// moves the batches out.
  [[nodiscard]] std::vector<Cut>& cuts() noexcept { return cuts_; }
  /// Lane `lane`'s cumulative result over every batch fed this run, as of
  /// the last barrier.
  [[nodiscard]] const engine::EngineResult& result(std::uint32_t lane) const {
    return *results_[lane];
  }
  [[nodiscard]] std::size_t lane_count() const noexcept {
    return lanes_.size();
  }
  void next_round() {
    cuts_.clear();
    for (std::vector<std::size_t>& c : lane_cuts_) c.clear();
    round_colors_ = 0;
  }

 private:
  /// Cuts per resolve chunk: enough chunks to balance the threads, few
  /// enough that the clock pairs and the publication lock stay off the
  /// per-batch path. Chunk c is cuts [32c, 32c + 32), whatever the timing.
  static constexpr std::size_t kResolveGrain = 32;
  /// The turn of a chunk without an observing cut: it takes none.
  static constexpr std::size_t kNoTurn =
      std::numeric_limits<std::size_t>::max();

  struct LaneNs {
    std::uint64_t execute = 0, drain = 0;
  };

  /// Colors a deduplicated cut against its epoch mapping or else its
  /// lane's into its slice of the round's colors, and touches the lane's
  /// arenas.
  void color_and_touch(Cut& c) {
    const std::vector<Node>& nodes = c.batch.nodes;
    const LaneSpec& lane = lanes_[c.lane];
    const TreeMapping& mapping = c.epoch != nullptr ? *c.epoch : *lane.mapping;
    mapping.color_of_batch(
        nodes, std::span<Color>(colors_.data() + c.first_color, nodes.size()));
    if (lane.memory != nullptr) c.mem = lane.memory->touch(nodes);
  }

  /// The session copies each cut's colors at feed; one round-wide buffer
  /// keeps per-batch color buffers from fragmenting the heap.
  LaneNs run_lane(std::uint64_t l) {
    const auto t0 = Clock::now();
    for (const std::size_t k : lane_cuts_[l]) {
      const Cut& c = cuts_[k];
      sessions_[l].feed_resolved(
          std::span<const Color>(colors_.data() + c.first_color,
                                 c.batch.nodes.size()),
          c.batch.formed_cycle);
    }
    const auto t1 = Clock::now();
    results_[l] = &sessions_[l].drain();
    return LaneNs{ns_between(t0, t1), ns_between(t1, Clock::now())};
  }

  /// Makes every cut so far resolvable, numbering the new chunk's
  /// observation turn when it holds an observing cut, and wakes a worker.
  void publish() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (published_ < cuts_.size()) {
        chunk_turns_.push_back(chunk_observes_ ? turns_numbered_++ : kNoTurn);
        published_ = cuts_.size();
      }
    }
    chunk_observes_ = false;
    work_.notify_one();
  }

  /// A published chunk nobody claimed yet, while no chunk has thrown.
  [[nodiscard]] bool claimable() const noexcept {
    return failure_ == nullptr && claimed_ * kResolveGrain < published_;
  }

  /// A worker: claims published chunks until the run ends.
  void work(std::stop_token stop) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (work_.wait(lock, stop, [this] { return claimable(); })) {
      resolve_chunk(lock);
    }
  }

  /// Keeps `failure`, thrown by the chunk at `begin`, if no lower chunk's
  /// is kept. Called with the lock held.
  void fail(std::size_t begin, std::exception_ptr failure) {
    if (failure != nullptr && begin < failed_begin_) {
      failed_begin_ = begin;
      failure_ = std::move(failure);
    }
  }

  /// Claims the next published chunk and resolves it with `lock` released
  /// but for its observation turn. A chunk without a turn dedups, colors
  /// and touches each cut before the next; a chunk with one dedups every
  /// cut, observes in its turn, then colors and touches. A throw is kept,
  /// never propagated, and
  /// stops further claims; close_round() rethrows the lowest chunk's, the
  /// one a 1-thread run throws. The lock hand-off orders every cut-time
  /// write before the chunk's resolve, the turn orders each observation
  /// after the observations of every earlier chunk, and the lock orders
  /// the resolve before close_round()'s return.
  void resolve_chunk(std::unique_lock<std::mutex>& lock) {
    const std::size_t chunk = claimed_++;
    const std::size_t begin = chunk * kResolveGrain;
    const std::size_t end = std::min(begin + kResolveGrain, published_);
    const std::size_t turn = chunk_turns_[chunk];
    lock.unlock();
    // data(), not operator[]: a checked operator[] reads the size, which
    // cut() is writing.
    Cut* const cuts = cuts_.data();
    std::exception_ptr failure;
    std::uint64_t wait_ns = 0;
    const auto t0 = Clock::now();
    try {
      // A chunk without a turn finishes each cut while its nodes are hot.
      for (std::size_t k = begin; k < end; ++k) {
        BatchFormer::dedup(cuts[k].batch.nodes);
        if (turn == kNoTurn) color_and_touch(cuts[k]);
      }
    } catch (...) {
      failure = std::current_exception();
    }
    if (turn != kNoTurn) {
      const auto w0 = Clock::now();
      lock.lock();
      turn_taken_.wait(lock, [&] { return turn_ == turn; });
      // After a lower chunk's throw this chunk's work is moot.
      const bool live = failure == nullptr && failed_begin_ > begin;
      lock.unlock();
      wait_ns = ns_between(w0, Clock::now());
      if (live) {
        try {
          for (std::size_t k = begin; k < end; ++k) {
            Cut& c = cuts[k];
            if (c.observer == nullptr) continue;
            c.epoch = observe_epoch(*c.observer, c.batch.nodes,
                                    c.batch.formed_cycle);
          }
        } catch (...) {
          failure = std::current_exception();
        }
      }
      lock.lock();
      fail(begin, failure);  // before the turn passes: later chunks skip
      turn_ += 1;
      lock.unlock();
      turn_taken_.notify_all();
      if (live && failure == nullptr) {
        try {
          for (std::size_t k = begin; k < end; ++k) color_and_touch(cuts[k]);
        } catch (...) {
          failure = std::current_exception();
        }
      }
    }
    const std::uint64_t ns = ns_between(t0, Clock::now());
    lock.lock();
    resolve_ns_ += ns - wait_ns;
    observe_wait_ns_ += wait_ns;
    fail(begin, std::move(failure));
    if (++finished_ == claimed_) done_.notify_one();
  }

  StageStats& stats_;
  std::vector<LaneSpec> lanes_;
  unsigned threads_ = 1;
  std::vector<engine::EngineSession> sessions_;
  std::vector<const engine::EngineResult*> results_;  ///< sessions' drains
  std::vector<Cut> cuts_;                            ///< this round's
  std::vector<std::vector<std::size_t>> lane_cuts_;  ///< indices into cuts_
  std::size_t round_colors_ = 0;  ///< raw nodes cut this round
  std::vector<Color> colors_;     ///< this round's, one slice per cut
  bool chunk_observes_ = false;   ///< an unpublished cut has an observer

  // The publication protocol: cuts [0, published_) are resolvable; chunks
  // [0, claimed_) are taken and finished_ of them are done. Chunk c's
  // observation turn is chunk_turns_[c]; turns [0, turn_) have passed.
  std::mutex mutex_;
  std::condition_variable_any work_;    ///< a chunk was published
  std::condition_variable done_;        ///< every claimed chunk is done
  std::condition_variable turn_taken_;  ///< an observation turn passed
  std::size_t published_ = 0;
  std::size_t claimed_ = 0;
  std::size_t finished_ = 0;
  std::vector<std::size_t> chunk_turns_;  ///< one per published chunk
  std::size_t turns_numbered_ = 0;        ///< this round's
  std::size_t turn_ = 0;                  ///< the turn that may observe
  std::uint64_t resolve_ns_ = 0;       ///< this round's, summed over threads
  std::uint64_t observe_wait_ns_ = 0;  ///< this round's, summed over threads
  std::size_t failed_begin_ = std::numeric_limits<std::size_t>::max();
  std::exception_ptr failure_;  ///< the lowest throwing chunk's
  /// Last, so the workers stop and join before anything they read goes.
  std::vector<std::jthread> workers_;
};

/// The "pipeline" metrics section: `stats` plus the run's shape.
Json stage_json(const StageStats& stats, unsigned workers, std::size_t lanes) {
  Json stage = Json::object();
  stage.set("control", Json(stats.control_ns));
  stage.set("resolve", Json(stats.resolve_ns));
  stage.set("observe_wait", Json(stats.observe_wait_ns));
  stage.set("execute", Json(stats.execute_ns));
  stage.set("drain", Json(stats.drain_ns));
  stage.set("barrier", Json(stats.barrier_ns));
  Json j = Json::object();
  j.set("workers", Json(std::uint64_t{workers}));
  j.set("lanes", Json(std::uint64_t{lanes}));
  j.set("rounds", Json(stats.rounds));
  j.set("batches", Json(stats.batches));
  j.set("max_in_flight", Json(stats.max_in_flight));
  j.set("stage_ns", std::move(stage));
  return j;
}

/// Intake schedule entry: slot `slot`'s request `local` arrives at
/// `arrival`. A round's intake is sorted by (arrival, slot, local).
struct IntakeEntry {
  std::uint64_t arrival = 0;
  std::uint32_t slot = 0;
  std::uint32_t local = 0;

  bool operator<(const IntakeEntry& o) const noexcept {
    return std::tie(arrival, slot, local) < std::tie(o.arrival, o.slot, o.local);
  }
};

/// One run's submissions in canonical order: each slot's requests (the
/// index is the slot-local id) and round 1's intake schedule.
struct Canonical {
  std::vector<std::vector<Request>> requests;
  std::vector<IntakeEntry> intake;
};

PlaneReport serve(const PlaneConfig& config, engine::MetricsRegistry& registry,
                  Canonical input, StageStats& stages) {
  const std::size_t N = config.slots.size();
  const std::uint64_t T = config.tick_cycles;
  std::vector<IntakeEntry> intake = std::move(input.intake);

  PlaneReport report;
  report.slots.resize(N);
  report.mutations.resize(N);
  std::optional<ServeMetrics> aggregate;
  if (!config.aggregate_prefix.empty()) {
    aggregate.emplace(registry, config.aggregate_prefix);
    aggregate->on_submitted(intake.size());
  }
  std::vector<Slot> slots;
  slots.reserve(N);
  for (std::size_t i = 0; i < N; ++i) {
    Slot& s = slots.emplace_back(config.slots[i], registry);
    s.requests = std::move(input.requests[i]);
    TenantReport& tr = report.slots[i];
    tr.responses.resize(s.requests.size());
    for (std::size_t k = 0; k < s.requests.size(); ++k) {
      tr.responses[k].client = s.requests[k].client;
      tr.responses[k].seq = s.requests[k].seq;
      tr.responses[k].submit_cycle = s.requests[k].submit_cycle;
    }
    tr.lanes.resize(s.config->lanes);
    s.attempts.assign(s.requests.size(), 0);
    if (s.config->dyn.enabled()) s.mutation_applied.assign(s.requests.size(), 0);
    arm_epoch_controller(s);
    s.metrics.on_submitted(s.requests.size());
  }
  // After the slots: the executor's workers drive the slots' epoch
  // controllers and color with their mappings, so they must stop before
  // the slots go, on a throw too.
  Executor exec(config, stages);

  // Each event lands in the slot's instruments and the aggregate's.
  const auto record = [&](Slot& s, const auto& event) {
    event(s.metrics);
    if (aggregate) event(*aggregate);
  };

  std::optional<DeficitRoundRobin> drr;
  if (config.drr_quantum_nodes != 0) {
    std::vector<std::uint64_t> weights;
    for (const SlotConfig& c : config.slots) weights.push_back(c.weight);
    drr.emplace(std::move(weights), config.drr_quantum_nodes);
  }
  const std::size_t G = config.pool_bound;
  const bool pooled = G != 0;
  std::size_t total_pending = 0;
  const auto recount_pending = [&]() {
    total_pending = 0;
    for (const Slot& s : slots) total_pending += s.admission.pending_count();
  };

  // Requests of the current round not yet shed, expired or dispatched.
  // Dispatched requests leave the control plane: their completion is the
  // lane's, read back at assembly.
  std::size_t unresolved = 0;
  const auto resolve = [&](std::size_t slot, std::size_t local,
                           RequestStatus status, std::uint64_t cycle) {
    Response& r = report.slots[slot].responses[local];
    assert(r.status == RequestStatus::kPending);
    r.status = status;
    r.completion_cycle = cycle;
    unresolved -= 1;
  };

  // Phase 4's cut of one batch from slot i at tick t. The executor dedups
  // the raw batch and, for a slot with an epoch controller, has the
  // controller observe it in cut order. Writers apply at the cut (the
  // PALM barrier), before the executor publishes the cut.
  const auto cut = [&](std::size_t i, std::uint64_t t) {
    Slot& s = slots[i];
    const SlotConfig& c = *s.config;
    FormedBatch batch = s.former.form_one_raw(t, s.admission);
    TenantReport& tr = report.slots[i];
    for (const std::size_t local : batch.members) {
      tr.responses[local].dispatch_cycle = t;
      tr.responses[local].batch = batch.id;
    }
    unresolved -= batch.members.size();
    tr.served_nodes += batch.requested_nodes;
    if (c.dyn.enabled()) {
      apply_batch_mutations(batch, s.requests, c.dyn, t, s.mutation_applied,
                            report.mutations[i]);
    }
    const std::uint32_t lane =
        c.first_lane + static_cast<std::uint32_t>(batch.id % c.lanes);
    exec.cut(std::move(batch), lane, static_cast<std::uint32_t>(i),
             s.planner || s.selector ? &s : nullptr);
  };

  std::vector<std::size_t> scratch;
  std::uint64_t t = 0;
  while (true) {
    report.rounds += 1;
    std::size_t next_intake = 0;
    unresolved = intake.size();
    const auto control_start = Clock::now();
    // Every cut takes at least one admitted request, and each intake
    // request joins at most one cut per round: true bounds.
    std::size_t raw_nodes = 0;
    for (const IntakeEntry& e : intake) {
      raw_nodes += slots[e.slot].requests[e.local].nodes.size();
    }
    exec.reserve(intake.size(), raw_nodes);

    while (unresolved > 0) {
      // A batch cut past the last tick could complete past UINT64_MAX.
      if (t > kLastTick) {
        throw std::overflow_error("serve clock past its last tick");
      }
      report.ticks += 1;
      // Phase 1: expire queued requests whose deadline budget elapsed.
      for (std::size_t i = 0; i < N; ++i) {
        Slot& s = slots[i];
        scratch.clear();
        s.admission.expire(t, scratch);
        for (const std::size_t local : scratch) {
          resolve(i, local, RequestStatus::kExpired, t);
        }
        record(s, [&](ServeMetrics& m) { m.on_expired(scratch.size()); });
      }
      recount_pending();

      // Phase 2: promote blocked callers, FIFO — before intake, so they
      // outrank this tick's arrivals. In a pool a slot may promote into
      // its unfilled reserve plus whatever of the shared bound is unused;
      // earlier slots consume shared headroom first.
      for (std::size_t i = 0; i < N; ++i) {
        Slot& s = slots[i];
        std::size_t limit = ~std::size_t{0};
        if (pooled) {
          const std::size_t mine = s.admission.pending_count();
          const std::size_t reserve_room =
              config.reserved[i] > mine ? config.reserved[i] - mine : 0;
          const std::size_t shared_room =
              total_pending < G ? G - total_pending : 0;
          limit = reserve_room + shared_room;
        }
        scratch.clear();
        s.admission.promote(t, scratch, limit);
        for (const std::size_t local : scratch) {
          report.slots[i].responses[local].admitted_cycle = t;
        }
        record(s, [&](ServeMetrics& m) { m.on_promoted(scratch.size()); });
        total_pending += scratch.size();
      }

      // Phase 3: intake of everything arrived by now, canonical order.
      // Retried requests keep their original Request — submit cycle and
      // deadline — so expiry prices a retry against the budget left.
      while (next_intake < intake.size() &&
             intake[next_intake].arrival <= t) {
        const IntakeEntry e = intake[next_intake++];
        Slot& s = slots[e.slot];
        const bool pool_ok = !pooled ||
                             s.admission.pending_count() <
                                 config.reserved[e.slot] ||
                             total_pending < G;
        switch (s.admission.offer(e.local, s.requests[e.local], t, pool_ok)) {
          case AdmissionController::Decision::kAdmitted:
            report.slots[e.slot].responses[e.local].admitted_cycle = t;
            record(s, [](ServeMetrics& m) { m.on_admitted(); });
            total_pending += 1;
            break;
          case AdmissionController::Decision::kBlocked:
            record(s, [](ServeMetrics& m) { m.on_blocked(); });
            break;
          case AdmissionController::Decision::kShedNow:
            resolve(e.slot, e.local, RequestStatus::kShed, t);
            record(s, [](ServeMetrics& m) { m.on_shed(); });
            break;
          case AdmissionController::Decision::kDeadOnArrival:
            resolve(e.slot, e.local, RequestStatus::kExpired, t);
            record(s, [](ServeMetrics& m) { m.on_expired(1); });
            break;
        }
      }

      // Phase 4: cut due batches. Under DRR each backlogged slot accrues
      // its quantum, then cuts while it can afford the next batch's
      // pre-dedup node cost; credit is forfeited once its queue empties.
      for (std::size_t i = 0; i < N; ++i) {
        Slot& s = slots[i];
        if (drr) {
          if (s.admission.pending_count() == 0) {
            drr->reset(i);
            continue;
          }
          drr->begin_turn(i);
        }
        while (s.former.due(t, s.admission)) {
          if (drr) {
            const std::uint64_t cost = s.former.next_batch_cost(s.admission);
            if (!drr->affords(i, cost)) break;
            drr->spend(i, cost);
          }
          cut(i, t);
        }
        if (drr && s.admission.pending_count() == 0) drr->reset(i);
      }
      recount_pending();

      // Phase 5: observe queue depths, per slot and in aggregate.
      std::size_t total_blocked = 0;
      bool idle = true;
      for (Slot& s : slots) {
        s.metrics.on_tick(s.admission.pending_count(),
                          s.admission.blocked_count());
        total_blocked += s.admission.blocked_count();
        idle = idle && s.admission.idle();
      }
      if (aggregate) aggregate->on_tick(total_pending, total_blocked);

      // Advance, saturating. With every queue idle the next event is the
      // next arrival: jump straight to its tick (ceiling — intake needs
      // arrival <= t) instead of ticking through the gap.
      const std::uint64_t next = t > kMaxCycle - T ? kMaxCycle : t + T;
      if (idle && next_intake < intake.size()) {
        const std::uint64_t arrival = intake[next_intake].arrival;
        const std::uint64_t next_tick = (arrival + T - 1) / T * T;
        t = next_tick > t ? next_tick : next;
      } else {
        t = next;
      }
    }

    stages.control_ns += ns_between(control_start, Clock::now());
    exec.close_round();

    // ---- Round assembly. Batches land in cut order, so each slot's list
    // stays in id order; a batch's members complete with its lane access
    // (batch b of a slot is access b / lanes of lane b mod lanes). A
    // faulted lane replays from cycle 0, and a fail-stop can drain an
    // earlier round's access behind a later one, so every barrier re-reads
    // every batch whose members' last attempt it still holds. (A healthy
    // lane's drain never moves an earlier completion; re-reading one
    // rewrites the same value.)
    for (Executor::Cut& c : exec.cuts()) {
      record(slots[c.tenant], [&](ServeMetrics& m) { m.on_batch(c.batch); });
      TenantReport& tr = report.slots[c.tenant];
      tr.memory += c.mem;
      tr.batches.push_back(std::move(c.batch));
    }
    // A member whose later attempt was cut again, shed or expired is no
    // longer this batch's.
    const auto holds = [](const Response& r, std::size_t b) {
      return r.batch == b &&
             (r.status == RequestStatus::kOk ||
              r.status == RequestStatus::kPending);
    };

    // ---- Retry scan, in the same pass: every held attempt whose
    // completion timed out is discarded and re-enters the next round's
    // intake at the cycle the caller would resend. An earlier round's
    // attempt is judged again on the same dispatch and attempt count, so
    // only a moved completion changes its verdict. A resend past the
    // clock's horizon never happens, so that attempt's completion stands.
    std::vector<IntakeEntry> retries;
    for (std::size_t i = 0; i < N; ++i) {
      Slot& s = slots[i];
      const SlotConfig& c = *s.config;
      const RetryPolicy& policy = c.options.retry;
      TenantReport& tr = report.slots[i];
      std::uint64_t issued = 0;
      for (std::size_t b = 0; b < tr.batches.size(); ++b) {
        const engine::EngineResult& res = exec.result(
            c.first_lane + static_cast<std::uint32_t>(b % c.lanes));
        const std::uint64_t completion = res.records[b / c.lanes].completion;
        for (const std::size_t local : tr.batches[b].members) {
          Response& r = tr.responses[local];
          if (!holds(r, b)) continue;
          r.status = RequestStatus::kOk;
          r.completion_cycle = completion;
          if (!policy.enabled() ||
              completion - r.dispatch_cycle <= policy.attempt_timeout_cycles ||
              s.attempts[local] >= policy.max_retries) {
            continue;
          }
          const std::uint64_t resend =
              policy.resend_cycle(r.dispatch_cycle, s.attempts[local] + 1);
          if (resend > kClockHorizon) continue;
          s.attempts[local] += 1;
          r.retries = s.attempts[local];
          r.status = RequestStatus::kPending;
          retries.push_back(IntakeEntry{resend, static_cast<std::uint32_t>(i),
                                        static_cast<std::uint32_t>(local)});
          issued += 1;
        }
      }
      record(s, [&](ServeMetrics& m) { m.on_retried(issued); });
    }
    if (retries.empty()) break;
    std::sort(retries.begin(), retries.end());
    intake = std::move(retries);
    exec.next_round();
  }

  // ---- Final accounting, deterministic order. ---------------------------
  for (std::size_t i = 0; i < N; ++i) {
    for (const Response& r : report.slots[i].responses) {
      report.final_cycle = std::max(report.final_cycle, r.completion_cycle);
      if (r.status == RequestStatus::kOk) {
        record(slots[i], [&](ServeMetrics& m) { m.on_completed(r); });
      }
    }
  }

  // Lane trajectories fold into the registry under stable names (lanes
  // run without one, so no parallel phase ever shares it), fault counters
  // attributed to their slot alone.
  for (std::size_t i = 0; i < N; ++i) {
    Slot& s = slots[i];
    const SlotConfig& c = *s.config;
    TenantReport& tr = report.slots[i];
    for (std::uint32_t l = 0; l < c.lanes; ++l) {
      const engine::EngineResult& res = exec.result(c.first_lane + l);
      tr.lanes[l] = res;
      const std::string prefix = c.lane_prefix + std::to_string(l);
      registry.counter(prefix + ".accesses").add(res.accesses);
      registry.counter(prefix + ".requests").add(res.requests);
      registry.counter(prefix + ".busy_cycles").add(res.busy_cycles);
      record(s, [&](ServeMetrics& m) {
        m.on_replica_faults(res.rerouted_requests, res.stalled_cycles);
      });
    }
    if (s.planner) s.metrics.set_migration(s.planner->stats());
    if (s.selector) s.metrics.set_adaptive(s.selector->stats());
    if (c.options.memory != nullptr) {
      s.metrics.set_memory(c.options.memory->stats(tr.memory));
    }
    if (c.dyn.enabled()) s.metrics.set_dyn(dyn_stats(c.dyn, report.mutations[i]));
  }
  if (config.pipeline.workers >= 1) {
    Json stats = stage_json(stages, config.pipeline.workers, exec.lane_count());
    if (aggregate) {
      aggregate->set_pipeline(std::move(stats));
    } else if (!slots.empty()) {
      slots[0].metrics.set_pipeline(std::move(stats));
    }
  }
  for (std::size_t i = 0; i < N; ++i) {
    report.slots[i].metrics = slots[i].metrics.summary();
  }
  if (aggregate) report.aggregate = aggregate->summary();
  return report;
}

Canonical canonical_order(
    std::array<std::vector<Submitted>, ControlPlane::kStripes>& stripes,
    std::size_t slots) {
  // The canonical key, cached so comparisons never chase two Requests.
  struct Key {
    std::uint64_t submit = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t client = 0;
    Submitted* item = nullptr;
  };
  std::size_t total = 0;
  for (const std::vector<Submitted>& stripe : stripes) total += stripe.size();
  std::vector<std::size_t> per_slot(slots, 0);
  std::vector<Key> keys;
  keys.reserve(total);
  for (std::vector<Submitted>& stripe : stripes) {
    for (Submitted& x : stripe) {
      keys.push_back(Key{x.request.submit_cycle, x.request.seq, x.slot,
                         x.request.client, &x});
      per_slot[x.slot] += 1;
    }
  }
  // Inboxes are striped by (slot, client), so equal keys share a stripe
  // and the stable sort keeps them in submission order.
  std::stable_sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.submit != b.submit) return a.submit < b.submit;
    if (a.slot != b.slot) return a.slot < b.slot;
    if (a.client != b.client) return a.client < b.client;
    return a.seq < b.seq;
  });

  // Each request moves exactly once, into its slot's vector. The
  // slot-local index is the identity every later phase uses; the intake
  // schedule comes out sorted by (arrival, slot, local).
  Canonical out;
  out.requests.resize(slots);
  for (std::size_t i = 0; i < slots; ++i) out.requests[i].reserve(per_slot[i]);
  out.intake.reserve(total);
  for (const Key& k : keys) {
    Submitted* x = k.item;
    std::vector<Request>& dst = out.requests[x->slot];
    out.intake.push_back(IntakeEntry{x->request.submit_cycle, x->slot,
                                     static_cast<std::uint32_t>(dst.size())});
    dst.push_back(std::move(x->request));
  }
  return out;
}

[[noreturn]] void reject(const char* why) { throw std::invalid_argument(why); }

}  // namespace

void reject_unsupported(const TreeMapping& mapping, const SlotOptions& slot,
                        const DynBinding& dyn) {
  if (slot.batch.max_wait_cycles > kClockHorizon) {
    reject("batch.max_wait_cycles past the clock horizon");
  }
  const std::uint32_t levels = mapping.tree().levels();
  const bool migration = slot.migration.enabled();
  const bool adaptive = slot.adaptive.enabled();
  if (migration && adaptive) {
    reject("migration and adaptive selection both own the epoch mapping");
  }
  if ((migration || adaptive) && slot.engine.faults != nullptr &&
      !slot.engine.faults->empty()) {
    reject("an epoch controller under a fault plan, whose reroute timeline "
           "owns the color space");
  }
  if (adaptive) AdaptiveSelector::check(mapping, slot.adaptive);
  if (migration) MigrationPlanner::check(mapping, slot.migration);
  if (slot.memory != nullptr && slot.memory->tree().levels() < levels) {
    reject("memory backend must cover the served tree");
  }
  if (!dyn.enabled()) return;
  if (dyn.colorer == nullptr) reject("dyn serving needs dyn.colorer");
  if (migration || adaptive) {
    reject("dyn serving does not compose with an epoch controller");
  }
  const std::uint32_t colored = dyn.colorer->tree().levels();
  if (colored < levels || colored < dyn.tree->max_levels()) {
    reject("dyn.colorer must cover the served tree and the dyn envelope");
  }
}

std::uint64_t checked_tick(std::uint64_t tick_cycles) {
  if (tick_cycles > kClockHorizon) reject("tick_cycles past the clock horizon");
  return tick_cycles == 0 ? 1 : tick_cycles;
}

void reject_out_of_range(const CompleteBinaryTree& tree,
                         const Request& request) {
  if (request.submit_cycle > kClockHorizon) {
    throw std::out_of_range("request submit_cycle past the clock horizon");
  }
  for (const Node n : request.nodes) {
    if (!tree.contains(n)) {
      throw std::out_of_range("request node outside the served tree");
    }
  }
}

std::uint64_t count_status(const std::vector<Response>& responses,
                           RequestStatus status) noexcept {
  std::uint64_t n = 0;
  for (const Response& r : responses) n += r.status == status ? 1 : 0;
  return n;
}

Json response_rows(const std::vector<Response>& responses) {
  Json rows = Json::array();
  for (const Response& r : responses) {
    Json row = Json::object();
    row.set("client", Json(std::uint64_t{r.client}));
    row.set("seq", Json(r.seq));
    row.set("status", Json(to_string(r.status)));
    row.set("submit", Json(r.submit_cycle));
    row.set("completion", Json(r.completion_cycle));
    row.set("latency", Json(r.latency()));
    row.set("retries", Json(std::uint64_t{r.retries}));
    if (r.status == RequestStatus::kOk) row.set("batch", Json(r.batch));
    rows.push_back(std::move(row));
  }
  return rows;
}

void ControlPlane::submit(std::uint32_t slot, Request request) {
  Inbox& inbox =
      inboxes_[(std::size_t{slot} * 31 + request.client) % kStripes];
  const std::lock_guard<std::mutex> lock(inbox.mutex);
  inbox.requests.push_back(Submitted{slot, std::move(request)});
}

PlaneReport ControlPlane::run(const PlaneConfig& config,
                              engine::MetricsRegistry& registry) {
  std::array<std::vector<Submitted>, kStripes> stripes;
  for (std::size_t s = 0; s < kStripes; ++s) {
    const std::lock_guard<std::mutex> lock(inboxes_[s].mutex);
    stripes[s] = std::move(inboxes_[s].requests);
    inboxes_[s].requests.clear();
  }
  return serve(config, registry,
               canonical_order(stripes, config.slots.size()), stages_);
}

}  // namespace pmtree::serve::detail
