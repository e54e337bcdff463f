// Read-write application clients over pmtree::dyn (DESIGN.md §16).
//
// The read-only apps (Dictionary, ParallelHeap) bind keys to a frozen
// complete tree and let serve clients replay their access paths. These
// are their dynamic analogues: the key store lives in slot-indexed
// arrays over a DynamicTree, operations are *planned* speculatively
// against the live shape plus a local shadow overlay of this client's
// still-unapplied writes, and every structural change rides the serve
// path as a write request (RequestKind::kInsert / kErase) applied at the
// PALM batch barrier.
//
// The protocol mirrors serve::DictionaryClient: submit_*() packages an
// operation as a Request (remembering it by seq) and reconcile() matches
// a finished ServeReport — responses plus the mutation log — back to the
// remembered operations. Reconcile replays this client's applied
// mutations in log (canonical barrier) order against the authoritative
// local key arrays, so the final key state is a pure function of the
// deterministic log: bit-identical at any worker count, pipeline workers
// included.
//
// Speculation and conflicts: a client plans against live state + its own
// overlay, so its own back-to-back writes compose (a second insert can
// descend through the first). Writes from *other* clients are invisible
// until the barrier; when speculation loses (another writer claimed the
// coordinate first), the barrier records the rejection verdict and
// reconcile() reports the operation as not applied — the client retries
// with fresh state, exactly like an optimistic-concurrency loser.
#pragma once

#include <cstdint>
#include <vector>

#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/serve/server.hpp"

namespace pmtree::dyn {

/// An unbalanced binary search tree over a DynamicTree: searches submit
/// their root-down comparison path as a read request, inserts submit the
/// path plus the speculative attachment coordinate as a kInsert request.
/// Keys live in a slot-indexed array (the allocator's stable slots), so
/// arbitrary churn never moves a stored key.
class DynamicDictionary {
 public:
  using Key = std::int64_t;

  /// Binds to `tree` (which must outlive the client) as client stream
  /// `client_id`. `root_key` seeds the always-live root — a dynamic
  /// dictionary is never empty, which keeps "first insert" and
  /// "structural insert" the same operation.
  DynamicDictionary(DynamicTree& tree, std::uint32_t client_id, Key root_key);

  /// Plans + submits the search for `key`; returns the request's seq.
  std::uint64_t submit_search(serve::Server& server, Key key,
                              std::uint64_t submit_cycle,
                              std::uint64_t deadline_cycles = 0);

  /// Plans + submits the insert of `key` at the speculative attachment
  /// point (first coordinate off the search path not live and not in
  /// this client's overlay); returns the request's seq. Duplicate keys
  /// (already present on the path) re-submit the search path read-only
  /// and report applied = false at reconcile.
  std::uint64_t submit_insert(serve::Server& server, Key key,
                              std::uint64_t submit_cycle,
                              std::uint64_t deadline_cycles = 0);

  struct Outcome {
    std::uint64_t seq = 0;
    Key key = 0;
    bool is_insert = false;
    serve::Response response;  ///< timing + terminal status
    /// Insert: the barrier applied the mutation (kOk verdict). Searches
    /// and duplicate-key inserts report false.
    bool applied = false;
    /// Membership in the final (post-run) key state.
    bool found = false;
  };

  /// Joins `report` back to this client's operations, in seq order:
  /// replays this client's applied mutations from the log into the key
  /// store, drops the speculation overlay, and re-derives each answer
  /// against the final state.
  std::vector<Outcome> reconcile(const serve::ServeReport& report);

  /// Membership against the current reconciled key state.
  [[nodiscard]] bool contains(Key key) const;
  /// Reconciled key count (root included).
  [[nodiscard]] std::uint64_t size() const noexcept { return key_count_; }
  [[nodiscard]] std::uint32_t id() const noexcept { return client_; }

 private:
  struct Walk {
    std::vector<Node> path;  ///< visited coordinates, root first
    bool found = false;      ///< key present on the path
    Node attach;             ///< first free coordinate (valid iff !found
                             ///< and the envelope wasn't exhausted)
    bool attachable = false;
  };
  struct Op {
    Key key = 0;
    bool insert = false;
  };

  [[nodiscard]] Walk walk(Key key) const;
  [[nodiscard]] Key key_at(Node n, bool* in_overlay) const;
  void store_key(Node n, Key key);

  DynamicTree* tree_;
  std::uint32_t client_;
  std::vector<Key> keys_;       ///< slot-indexed, authoritative
  std::vector<char> has_key_;   ///< slot-indexed validity
  std::uint64_t key_count_ = 1;
  std::vector<Op> ops_;         ///< indexed by seq
  std::uint64_t reconciled_ = 0;  ///< ops below this seq are final
  /// This client's pending speculative inserts: (coordinate, key).
  std::vector<std::pair<Node, Key>> overlay_;
};

/// A BFS-compact binary min-heap: element i lives at coordinate
/// node_at(i), so the live set is always the first size() BFS positions
/// — pushes append the next BFS coordinate (kInsert), pops erase the
/// last one (kErase). Keys are kept locally and replayed from the
/// mutation log; sift paths are what the requests fetch.
class DynamicHeap {
 public:
  using Key = std::int64_t;

  /// Binds to `tree` (root-only at bind time is the intended state) as
  /// client stream `client_id`; `root_key` seeds the always-live root.
  DynamicHeap(DynamicTree& tree, std::uint32_t client_id, Key root_key);

  /// Plans + submits push(key): the request fetches the speculative
  /// sift-up path and inserts the next BFS coordinate.
  std::uint64_t submit_push(serve::Server& server, Key key,
                            std::uint64_t submit_cycle,
                            std::uint64_t deadline_cycles = 0);

  /// Plans + submits pop(): the request fetches the speculative
  /// sift-down path and erases the last BFS coordinate. Popping a heap
  /// whose speculative size is 1 targets the root and is rejected by the
  /// barrier (kIsRoot) — reported as applied = false.
  std::uint64_t submit_pop(serve::Server& server, std::uint64_t submit_cycle,
                           std::uint64_t deadline_cycles = 0);

  struct Outcome {
    std::uint64_t seq = 0;
    bool is_push = false;
    /// Push: the pushed key. Pop: the key removed (valid iff applied).
    Key key = 0;
    serve::Response response;
    bool applied = false;
  };

  /// Replays this client's applied mutations from the log, in canonical
  /// barrier order, against the local heap array — pops re-derive the
  /// extracted key exactly as a sequential reference would.
  std::vector<Outcome> reconcile(const serve::ServeReport& report);

  [[nodiscard]] std::uint64_t size() const noexcept { return heap_.size(); }
  /// Minimum key (the root's). Heap is never empty.
  [[nodiscard]] Key top() const noexcept { return heap_.front(); }
  [[nodiscard]] std::uint32_t id() const noexcept { return client_; }

 private:
  struct Op {
    Key key = 0;
    bool push = false;
  };

  static void sift_up(std::vector<Key>& heap, std::size_t i,
                      std::vector<Node>* touched);
  static void sift_down(std::vector<Key>& heap, std::vector<Node>* touched);
  /// Pops shadow_ and records the touched sift-down coordinates.
  static Key pop_heap(std::vector<Key>& heap, std::vector<Node>* touched);

  DynamicTree* tree_;
  std::uint32_t client_;
  std::vector<Key> heap_;    ///< authoritative, rebuilt by reconcile
  std::vector<Key> shadow_;  ///< speculative: heap_ + pending ops
  std::vector<Op> ops_;      ///< indexed by seq
  std::uint64_t reconciled_ = 0;
};

}  // namespace pmtree::dyn
