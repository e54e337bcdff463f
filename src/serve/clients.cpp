#include "pmtree/serve/clients.hpp"

namespace pmtree::serve {
namespace {

/// Responses for `client` in seq order. The report is already in canonical
/// (submit, client, seq) order; per-client seq order needs one stable pass.
std::vector<const Response*> responses_for(
    const std::vector<Response>& responses, std::uint32_t client,
    std::size_t expected) {
  std::vector<const Response*> mine(expected, nullptr);
  for (const Response& r : responses) {
    if (r.client == client && r.seq < expected) mine[r.seq] = &r;
  }
  return mine;
}

}  // namespace

Request DictionaryClient::search_request(Dictionary::Key key,
                                         std::uint64_t submit_cycle,
                                         std::uint64_t deadline_cycles) {
  Request request;
  request.client = client_;
  request.seq = keys_.size();
  request.submit_cycle = submit_cycle;
  request.deadline_cycles = deadline_cycles;
  request.nodes = dictionary_->search(key).accessed;
  keys_.push_back(key);
  return request;
}

std::uint64_t DictionaryClient::submit_search(Server& server,
                                              Dictionary::Key key,
                                              std::uint64_t submit_cycle,
                                              std::uint64_t deadline_cycles) {
  server.submit(search_request(key, submit_cycle, deadline_cycles));
  return keys_.size() - 1;
}

std::uint64_t DictionaryClient::submit_search(Forest& forest,
                                              std::uint32_t tenant,
                                              Dictionary::Key key,
                                              std::uint64_t submit_cycle,
                                              std::uint64_t deadline_cycles) {
  forest.submit(tenant, search_request(key, submit_cycle, deadline_cycles));
  return keys_.size() - 1;
}

std::vector<DictionaryClient::Outcome> DictionaryClient::join_responses(
    const std::vector<Response>& responses) const {
  std::vector<Outcome> outcomes;
  const auto mine = responses_for(responses, client_, keys_.size());
  outcomes.reserve(keys_.size());
  for (std::size_t seq = 0; seq < keys_.size(); ++seq) {
    if (mine[seq] == nullptr) continue;  // submitted after this run()
    Outcome out;
    out.seq = seq;
    out.key = keys_[seq];
    out.response = *mine[seq];
    if (out.response.status == RequestStatus::kOk) {
      out.result = dictionary_->search(keys_[seq]);
    }
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

Request RangeIndexClient::query_request(RangeIndex::Key lo,
                                        RangeIndex::Key hi,
                                        std::uint64_t submit_cycle,
                                        std::uint64_t deadline_cycles) {
  Request request;
  request.client = client_;
  request.seq = ranges_.size();
  request.submit_cycle = submit_cycle;
  request.deadline_cycles = deadline_cycles;
  request.nodes = index_->query(lo, hi).accessed;
  ranges_.emplace_back(lo, hi);
  return request;
}

std::uint64_t RangeIndexClient::submit_query(Server& server,
                                             RangeIndex::Key lo,
                                             RangeIndex::Key hi,
                                             std::uint64_t submit_cycle,
                                             std::uint64_t deadline_cycles) {
  server.submit(query_request(lo, hi, submit_cycle, deadline_cycles));
  return ranges_.size() - 1;
}

std::uint64_t RangeIndexClient::submit_query(Forest& forest,
                                             std::uint32_t tenant,
                                             RangeIndex::Key lo,
                                             RangeIndex::Key hi,
                                             std::uint64_t submit_cycle,
                                             std::uint64_t deadline_cycles) {
  forest.submit(tenant, query_request(lo, hi, submit_cycle, deadline_cycles));
  return ranges_.size() - 1;
}

std::vector<RangeIndexClient::Outcome> RangeIndexClient::join_responses(
    const std::vector<Response>& responses) const {
  std::vector<Outcome> outcomes;
  const auto mine = responses_for(responses, client_, ranges_.size());
  outcomes.reserve(ranges_.size());
  for (std::size_t seq = 0; seq < ranges_.size(); ++seq) {
    if (mine[seq] == nullptr) continue;
    Outcome out;
    out.seq = seq;
    out.lo = ranges_[seq].first;
    out.hi = ranges_[seq].second;
    out.response = *mine[seq];
    if (out.response.status == RequestStatus::kOk) {
      out.result = index_->query(out.lo, out.hi);
    }
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

}  // namespace pmtree::serve
