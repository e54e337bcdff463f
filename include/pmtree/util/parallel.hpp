// Deterministic chunked parallel-for.
//
// The analysis layer wants wall-clock parallelism without giving up the
// library's reproducibility guarantees, so the primitive here is shaped
// for deterministic reductions rather than generality: the index space
// [0, count) is cut into fixed-size chunks, worker threads claim chunks
// from a shared atomic counter, and the body receives (thread_id, begin,
// end). Two properties matter to callers:
//
//   * chunk boundaries depend only on (count, grain) — never on timing —
//     so any per-index work is identical across runs and thread counts;
//   * a given thread claims chunks in increasing order, so per-thread
//     accumulators see their indices ascending, which lets a reduction
//     keep "first index attaining the maximum" semantics exactly (see
//     CostAccumulator in src/analysis/cost.cpp).
//
// With threads == 1 (or a single chunk) everything runs inline on the
// calling thread and no std::thread is spawned.
//
// An exception escaping the body reaches the caller at every thread count,
// and it is the same exception: the one thrown by the lowest-index chunk
// that threw, which is the one a 1-thread run throws (the body visits a
// chunk's indices in ascending order).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

namespace pmtree {

/// Resolves a requested worker count: 0 means one worker per hardware
/// thread (at least 1 when the runtime cannot tell).
[[nodiscard]] inline unsigned resolve_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Runs body(thread_id, begin, end) over [0, count) in chunks of `grain`
/// indices. thread_id < threads; each index is visited exactly once when
/// no body throws. If bodies throw, no chunk is claimed after the first
/// throw, every thread is joined, and the exception of the lowest-index
/// chunk that threw is rethrown on the calling thread. Chunks are claimed
/// in increasing order, so every chunk below a claimed one has run by
/// then, and that exception is the one a 1-thread run throws.
template <typename Body>
void parallel_chunks(std::uint64_t count, unsigned threads,
                     std::uint64_t grain, Body&& body) {
  threads = std::max(threads, 1u);
  grain = std::max<std::uint64_t>(grain, 1);
  if (count == 0) return;
  const std::uint64_t num_chunks = (count + grain - 1) / grain;
  if (threads == 1 || num_chunks == 1) {
    body(0u, std::uint64_t{0}, count);
    return;
  }

  // Per thread: its first (so lowest) chunk that threw, and the exception.
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> failed_chunk(threads, kNone);
  std::vector<std::exception_ptr> failure(threads);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> next{0};
  const auto worker = [&](unsigned tid) {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      const std::uint64_t begin = chunk * grain;
      try {
        body(tid, begin, std::min(count, begin + grain));
      } catch (...) {
        failed_chunk[tid] = chunk;
        failure[tid] = std::current_exception();
        stop.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0u);
  for (auto& th : pool) th.join();
  const auto first = std::min_element(failed_chunk.begin(), failed_chunk.end());
  if (*first != kNone) {
    std::rethrow_exception(
        failure[static_cast<std::size_t>(first - failed_chunk.begin())]);
  }
}

}  // namespace pmtree
