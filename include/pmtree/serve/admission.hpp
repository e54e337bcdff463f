// Admission control: the bounded front door of the serve pipeline.
//
// A production front-end never lets its queue grow without bound — it
// either sheds load (reject fast, keep latency bounded) or applies
// backpressure (block the caller until space frees), and it refuses to
// keep work whose deadline has already passed. AdmissionController is
// that policy, operated on the server's simulated clock: a FIFO of
// admitted-but-unbatched requests capped at `queue_bound`, an overflow
// queue modelling blocked callers (kBlock) or an immediate-shed verdict
// (kShed), and a deadline sweep that expires requests still queued past
// their budget. This mirrors how memory-constrained tree schedulers
// throttle admission to bound in-flight work (Marchal/Sinnen/Vivien;
// Eyraud-Dubois et al.) — here the bounded resource is the batch queue in
// front of the parallel memory system.
//
// All methods are called from the server's single-threaded control plane
// in a fixed per-tick order (expire → promote → intake → batch); the
// controller itself holds no locks and no clock — `now` is always passed
// in. Determinism follows from that fixed order (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <vector>

#include "pmtree/serve/request.hpp"

namespace pmtree::serve {

/// What to do with a request that finds the admission queue full.
enum class OverflowPolicy : std::uint8_t {
  kShed,   ///< reject immediately with RequestStatus::kShed
  kBlock,  ///< the caller waits; admitted FIFO as soon as space frees
};

struct AdmissionOptions {
  /// Maximum requests admitted-but-unbatched at any time. 0 behaves as 1.
  std::size_t queue_bound = 256;
  OverflowPolicy overflow = OverflowPolicy::kShed;
};

/// One queued request, as the batcher sees it: the canonical index plus
/// the fields admission and batching decide on. `nodes` aliases the
/// request's payload (owned by the server for the whole run).
struct QueuedRequest {
  std::size_t index = 0;            ///< canonical request index
  std::uint64_t submit_cycle = 0;
  std::uint64_t deadline_cycles = 0;
  std::uint64_t admitted_cycle = 0;
  const std::vector<Node>* nodes = nullptr;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options)
      : options_(options) {
    if (options_.queue_bound == 0) options_.queue_bound = 1;
  }

  enum class Decision : std::uint8_t {
    kAdmitted,       ///< entered the pending queue at `now`
    kBlocked,        ///< queue full, caller blocks (kBlock policy)
    kShedNow,        ///< queue full, rejected (kShed policy)
    kDeadOnArrival,  ///< deadline already elapsed at intake
  };

  /// Intake of one submitted request at tick `now`. `pool_has_room` is
  /// the capacity verdict of any *shared* layer above this controller (a
  /// forest's global queue bound): when false and the controller's own
  /// queue has space, the request blocks rather than sheds — running out
  /// of the shared pool is the pool's fault, not this caller's, so the
  /// overflow policy (which prices the tenant's own quota) never applies.
  /// Shed therefore remains attributable to the tenant's own queue bound
  /// alone, the isolation invariant multi-tenant serving needs.
  Decision offer(std::size_t index, const Request& request, std::uint64_t now,
                 bool pool_has_room = true) {
    if (expired_at(request.submit_cycle, request.deadline_cycles, now)) {
      return Decision::kDeadOnArrival;
    }
    if (request.deadline_cycles != 0) saw_deadline_ = true;
    QueuedRequest q{index, request.submit_cycle, request.deadline_cycles, now,
                    &request.nodes};
    if (pending_.size() < options_.queue_bound) {
      if (!pool_has_room) {
        blocked_.push_back(q);
        return Decision::kBlocked;
      }
      push_pending(q);
      return Decision::kAdmitted;
    }
    if (options_.overflow == OverflowPolicy::kBlock) {
      blocked_.push_back(q);
      return Decision::kBlocked;
    }
    return Decision::kShedNow;
  }

  /// Deadline sweep at tick `now`: removes every queued request — pending
  /// first (FIFO order), then blocked — whose budget has elapsed, and
  /// appends their canonical indices to `expired`.
  void expire(std::uint64_t now, std::vector<std::size_t>& expired) {
    // One-way latch: until some offered request has carried a nonzero
    // deadline, no queued entry can ever expire, and the per-tick queue
    // scans (2 per tick per tenant, forever) are pure overhead.
    if (!saw_deadline_) return;
    sweep(pending_, now, expired, /*count_nodes=*/true);
    sweep(blocked_, now, expired, /*count_nodes=*/false);
  }

  /// Moves blocked callers into the pending queue while space allows,
  /// stamping them admitted at `now`; appends promoted indices. `limit`
  /// caps how many may be promoted this call — the shared-pool layer's
  /// headroom (defaults to unlimited for single-tenant use).
  void promote(std::uint64_t now, std::vector<std::size_t>& promoted,
               std::size_t limit = ~std::size_t{0}) {
    while (limit-- > 0 && !blocked_.empty() &&
           pending_.size() < options_.queue_bound) {
      QueuedRequest q = blocked_.front();
      blocked_.pop_front();
      q.admitted_cycle = now;
      push_pending(q);
      promoted.push_back(q.index);
    }
  }

  /// The admitted-but-unbatched requests, oldest first. The batcher
  /// (see BatchFormer) reads them here and takes them with pop_front().
  [[nodiscard]] const std::deque<QueuedRequest>& pending() const noexcept {
    return pending_;
  }
  /// Removes and returns the oldest pending request; its nodes leave the
  /// pending node count with it. Throws std::out_of_range when nothing is
  /// pending.
  QueuedRequest pop_front() {
    if (pending_.empty()) {
      throw std::out_of_range(
          "AdmissionController::pop_front with no request pending");
    }
    const QueuedRequest q = pending_.front();
    pending_.pop_front();
    pending_node_count_ -= q.nodes->size();
    return q;
  }

  [[nodiscard]] std::size_t pending_count() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] std::uint64_t pending_node_count() const noexcept {
    return pending_node_count_;
  }
  [[nodiscard]] std::size_t blocked_count() const noexcept {
    return blocked_.size();
  }
  [[nodiscard]] bool idle() const noexcept {
    return pending_.empty() && blocked_.empty();
  }
  [[nodiscard]] const AdmissionOptions& options() const noexcept {
    return options_;
  }

  [[nodiscard]] static bool expired_at(std::uint64_t submit,
                                       std::uint64_t deadline,
                                       std::uint64_t now) noexcept {
    // Compare as elapsed-vs-budget, not now-vs-(submit + deadline): the
    // sum form wraps for near-max deadlines ("effectively no deadline")
    // and would expire such requests instantly. The controller never sees
    // now < submit (intake requires submit_cycle <= tick), so the
    // subtraction cannot wrap; the guard keeps the function total anyway.
    return deadline != 0 && now >= submit && now - submit >= deadline;
  }

 private:
  void push_pending(const QueuedRequest& q) {
    pending_.push_back(q);
    pending_node_count_ += q.nodes->size();
  }

  void sweep(std::deque<QueuedRequest>& queue, std::uint64_t now,
             std::vector<std::size_t>& expired, bool count_nodes) {
    // The sweep runs every tick on every tenant; the common case — nothing
    // expired — must not churn a rebuilt deque (two deque constructions
    // per tick dominated the serve profile). Scan first, rebuild only on
    // an actual expiry.
    bool any = false;
    for (const QueuedRequest& q : queue) {
      if (expired_at(q.submit_cycle, q.deadline_cycles, now)) {
        any = true;
        break;
      }
    }
    if (!any) return;
    std::deque<QueuedRequest> keep;
    for (const QueuedRequest& q : queue) {
      if (expired_at(q.submit_cycle, q.deadline_cycles, now)) {
        expired.push_back(q.index);
        if (count_nodes) pending_node_count_ -= q.nodes->size();
      } else {
        keep.push_back(q);
      }
    }
    queue.swap(keep);
  }

  AdmissionOptions options_;
  std::deque<QueuedRequest> pending_;
  std::deque<QueuedRequest> blocked_;
  std::uint64_t pending_node_count_ = 0;
  /// Set once a deadline-bearing request is offered; gates expire().
  bool saw_deadline_ = false;
};

}  // namespace pmtree::serve
