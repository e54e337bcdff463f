// First real clients of the serve front-end: the dictionary and the
// range index from pmtree/apps, adapted to the Request/Response protocol.
//
// The apps compute *answers* (a found key, a range of keys) and report
// the node set each operation touches; the server simulates *when* that
// node set is fetched under contention. A client therefore splits an
// operation in two: submit_*() packages the accessed node set as a
// Request (remembering the operation keyed by seq), and join() matches a
// finished ServeReport back to the remembered operations, re-deriving
// each answer and pairing it with the response's timing — or with the
// shed/expired verdict, in which case the answer never materialized.
// Each client builds its request in one place; the Server and Forest
// overloads differ only in where they submit it, and the two join()
// overloads only in which report holds the responses.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "pmtree/apps/dictionary.hpp"
#include "pmtree/apps/range_index.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/serve/server.hpp"

namespace pmtree::serve {

/// Dictionary lookups as serve requests: each search submits its
/// speculative root-to-leaf path (a P-template instance) as one request.
class DictionaryClient {
 public:
  /// `dictionary` must outlive the client. `client_id` is this client's
  /// stream id in the (client, seq) request identity.
  DictionaryClient(const Dictionary& dictionary, std::uint32_t client_id)
      : dictionary_(&dictionary), client_(client_id) {}

  /// Submits the parallel search for `key` at `submit_cycle`; returns the
  /// request's seq.
  std::uint64_t submit_search(Server& server, Dictionary::Key key,
                              std::uint64_t submit_cycle,
                              std::uint64_t deadline_cycles = 0);
  /// Same, against one tenant of a multi-tenant forest.
  std::uint64_t submit_search(Forest& forest, std::uint32_t tenant,
                              Dictionary::Key key, std::uint64_t submit_cycle,
                              std::uint64_t deadline_cycles = 0);

  struct Outcome {
    std::uint64_t seq = 0;
    Dictionary::Key key = 0;
    Response response;                ///< timing + terminal status
    Dictionary::SearchResult result;  ///< meaningful iff status == kOk
  };

  /// Joins `report` back to this client's submitted searches, in seq
  /// order. kOk outcomes carry the re-derived search answer.
  [[nodiscard]] std::vector<Outcome> join(const ServeReport& report) const {
    return join_responses(report.responses);
  }
  /// Joins one tenant's section of a forest report (the tenant this
  /// client submitted to).
  [[nodiscard]] std::vector<Outcome> join(const TenantReport& report) const {
    return join_responses(report.responses);
  }

  [[nodiscard]] std::uint32_t id() const noexcept { return client_; }
  [[nodiscard]] std::uint64_t submitted() const noexcept {
    return keys_.size();
  }

 private:
  /// Records `key` under the next seq and returns its request: the one
  /// request both submit_search overloads hand on.
  [[nodiscard]] Request search_request(Dictionary::Key key,
                                       std::uint64_t submit_cycle,
                                       std::uint64_t deadline_cycles);
  [[nodiscard]] std::vector<Outcome> join_responses(
      const std::vector<Response>& responses) const;

  const Dictionary* dictionary_;
  std::uint32_t client_;
  std::vector<Dictionary::Key> keys_;  ///< indexed by seq
};

/// Range queries as serve requests: each query submits its composite
/// C(D, c) cover (subtrees + boundary paths) as one request.
class RangeIndexClient {
 public:
  RangeIndexClient(const RangeIndex& index, std::uint32_t client_id)
      : index_(&index), client_(client_id) {}

  /// Submits the range query [lo, hi] at `submit_cycle`; returns its seq.
  std::uint64_t submit_query(Server& server, RangeIndex::Key lo,
                             RangeIndex::Key hi, std::uint64_t submit_cycle,
                             std::uint64_t deadline_cycles = 0);
  /// Same, against one tenant of a multi-tenant forest.
  std::uint64_t submit_query(Forest& forest, std::uint32_t tenant,
                             RangeIndex::Key lo, RangeIndex::Key hi,
                             std::uint64_t submit_cycle,
                             std::uint64_t deadline_cycles = 0);

  struct Outcome {
    std::uint64_t seq = 0;
    RangeIndex::Key lo = 0;
    RangeIndex::Key hi = 0;
    Response response;
    RangeIndex::QueryResult result;  ///< meaningful iff status == kOk
  };

  [[nodiscard]] std::vector<Outcome> join(const ServeReport& report) const {
    return join_responses(report.responses);
  }
  [[nodiscard]] std::vector<Outcome> join(const TenantReport& report) const {
    return join_responses(report.responses);
  }

  [[nodiscard]] std::uint32_t id() const noexcept { return client_; }
  [[nodiscard]] std::uint64_t submitted() const noexcept {
    return ranges_.size();
  }

 private:
  /// Records [lo, hi] under the next seq and returns its request: the one
  /// request both submit_query overloads hand on.
  [[nodiscard]] Request query_request(RangeIndex::Key lo, RangeIndex::Key hi,
                                      std::uint64_t submit_cycle,
                                      std::uint64_t deadline_cycles);
  [[nodiscard]] std::vector<Outcome> join_responses(
      const std::vector<Response>& responses) const;

  const RangeIndex* index_;
  std::uint32_t client_;
  std::vector<std::pair<RangeIndex::Key, RangeIndex::Key>> ranges_;
};

}  // namespace pmtree::serve
