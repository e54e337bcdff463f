// Request/Response vocabulary of the pmtree::serve front-end.
//
// A Request is one client operation against the tree: a node set to fetch
// in (at most) one parallel memory access — a point lookup (one node), a
// dictionary search path, a range query's composite cover. Requests carry
// a simulated submission cycle and an optional deadline budget; the server
// timestamps every later state transition on the same simulated clock, so
// a Response is a complete latency record: when the request was admitted,
// when its batch dispatched, and when the memory system finished it — or
// when admission control shed it / its deadline expired while it queued.
//
// Identity: (client, seq) names a request uniquely within one Server run.
// Determinism hangs off this: the server orders everything by
// (submit_cycle, client, seq), a pure function of the submitted set, so
// results never depend on which thread delivered which request first
// (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <vector>

#include "pmtree/tree/node.hpp"

namespace pmtree::serve {

enum class RequestStatus : std::uint8_t {
  kPending,  ///< not yet resolved (never appears in a finished report)
  kOk,       ///< batched, executed, completed
  kShed,     ///< rejected by admission control (queue full, kShed policy)
  kExpired,  ///< deadline elapsed while the request was still queued
};

[[nodiscard]] constexpr const char* to_string(RequestStatus s) noexcept {
  switch (s) {
    case RequestStatus::kPending: return "pending";
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kShed: return "shed";
    case RequestStatus::kExpired: return "expired";
  }
  return "?";
}

/// What the request does to the tree. Reads fetch their node set; writes
/// additionally mutate the dynamic tree (ServerOptions::dyn) at the
/// batch-cut barrier, PALM-style: the write rides its search path through
/// admission/batching/execution like any read, and its structural effect
/// applies once, on the control plane, in canonical batch-member order —
/// so responses and mutation verdicts are bit-identical at any worker
/// count. Without a dyn binding, writes behave exactly as reads.
enum class RequestKind : std::uint8_t {
  kRead,    ///< fetch `nodes` only
  kInsert,  ///< make `target` live (its parent must be live at apply time)
  kErase,   ///< remove the live, childless, non-root `target`
};

[[nodiscard]] constexpr const char* to_string(RequestKind k) noexcept {
  switch (k) {
    case RequestKind::kRead: return "read";
    case RequestKind::kInsert: return "insert";
    case RequestKind::kErase: return "erase";
  }
  return "?";
}

/// The last cycle a request may arrive at, and the longest tick period and
/// batching wait. Server::submit and Forest::submit throw
/// std::out_of_range for a submit_cycle past it, the Server constructor
/// and Forest::add_tenant std::invalid_argument for a
/// BatchPolicy::max_wait_cycles past it, the Server and Forest
/// constructors for a tick_cycles past it, and the retry scan sends no
/// retry past it. Each bound caps one step, not a chain of blocked
/// requests each waiting out a full budget, so the tick loop also keeps
/// kClockHorizon cycles for completions: Server::run and Forest::run throw
/// std::overflow_error when it reaches a tick past UINT64_MAX -
/// kClockHorizon, before anything is cut there.
inline constexpr std::uint64_t kClockHorizon = std::uint64_t{1} << 62;

struct Request {
  std::uint32_t client = 0;  ///< submitting client stream
  std::uint64_t seq = 0;     ///< per-client sequence number (caller-assigned)
  std::uint64_t submit_cycle = 0;    ///< simulated arrival, <= kClockHorizon
  std::uint64_t deadline_cycles = 0; ///< latency budget; 0 = no deadline
  std::vector<Node> nodes;           ///< node set to fetch (may be empty)
  /// Write-request extension; defaults keep read-only traffic unchanged.
  RequestKind kind = RequestKind::kRead;
  Node target;                 ///< mutation coordinate (kInsert / kErase)
  std::int64_t payload = 0;    ///< opaque client payload riding the write
};

struct Response {
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  RequestStatus status = RequestStatus::kPending;
  std::uint64_t submit_cycle = 0;
  std::uint64_t admitted_cycle = 0;    ///< tick admitted into the queue
  std::uint64_t dispatch_cycle = 0;    ///< tick its batch was formed (kOk)
  std::uint64_t completion_cycle = 0;  ///< served / shed / expired cycle
  std::uint64_t batch = 0;             ///< global batch id (valid iff kOk)
  /// Attempts beyond the first (RetryPolicy). The admitted/dispatch/batch
  /// stamps above describe the final attempt; earlier attempts' outcomes
  /// were discarded by the retry.
  std::uint32_t retries = 0;

  /// End-to-end simulated latency: resolution minus submission. For kOk
  /// this is queueing + batching wait + memory service; for kShed and
  /// kExpired it is how long the caller waited for the rejection.
  [[nodiscard]] std::uint64_t latency() const noexcept {
    return completion_cycle - submit_cycle;
  }
  /// Cycles spent queued before the batch dispatched (kOk only).
  [[nodiscard]] std::uint64_t queue_wait() const noexcept {
    return dispatch_cycle - submit_cycle;
  }
};

}  // namespace pmtree::serve
