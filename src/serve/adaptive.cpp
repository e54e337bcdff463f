#include "pmtree/serve/adaptive.hpp"

#include <cassert>

#include "pmtree/analysis/cost.hpp"

namespace pmtree::serve {

Json AdaptiveEvent::to_json() const {
  Json j = Json::object();
  j.set("epoch", Json(epoch));
  j.set("cycle", Json(cycle));
  j.set("batches", Json(batches));
  Json jscores = Json::array();
  for (const std::uint64_t s : scores) jscores.push_back(Json(s));
  j.set("scores", std::move(jscores));
  j.set("chosen", Json(static_cast<std::uint64_t>(chosen)));
  j.set("switched", Json(switched));
  return j;
}

AdaptiveSelector::AdaptiveSelector(const TreeMapping& base,
                                   const AdaptivePolicy& policy)
    : policy_(policy), active_(&base) {
  assert(policy_.enabled());
  scores_.assign(policy_.candidates.size(), 0);
}

void AdaptiveSelector::observe(std::span<const Node> nodes,
                               std::uint64_t cycle) {
  // Score every candidate on the same batch: the batch's rounds (its
  // busiest module's request count) is its makespan under the paper's
  // service model (one request per module per cycle), so the sum over
  // batches estimates how long this candidate would have taken to serve
  // the observed stream.
  for (std::size_t j = 0; j < policy_.candidates.size(); ++j) {
    scores_[j] += rounds(*policy_.candidates[j], nodes);
  }
  batches_total_ += 1;
  batches_since_decide_ += 1;
  if (batches_since_decide_ >= policy_.epoch_batches) {
    batches_since_decide_ = 0;
    decide(cycle);
  }
}

void AdaptiveSelector::decide(std::uint64_t cycle) {
  epochs_planned_ += 1;

  // Argmin over the accumulated scores, ties to the lowest index — a
  // total order, so the decision is a pure function of the cut sequence.
  std::size_t best = 0;
  for (std::size_t j = 1; j < scores_.size(); ++j) {
    if (scores_[j] < scores_[best]) best = j;
  }

  // Hysteresis: an incumbent candidate is only unseated by a *strictly*
  // better score (the base has no score, so the first decision always
  // installs a candidate). This keeps a workload sitting exactly on a
  // tie from oscillating between mappings every epoch.
  bool switched = false;
  std::size_t incumbent = scores_.size();
  for (std::size_t j = 0; j < policy_.candidates.size(); ++j) {
    if (policy_.candidates[j] == active_) incumbent = j;
  }
  const std::size_t chosen =
      (incumbent < scores_.size() && scores_[best] >= scores_[incumbent])
          ? incumbent
          : best;
  if (policy_.candidates[chosen] != active_) {
    active_ = policy_.candidates[chosen];
    switches_ += 1;
    switched = true;
  }

  AdaptiveEvent event;
  event.epoch = epochs_planned_;
  event.cycle = cycle;
  event.batches = batches_total_;
  event.scores = scores_;
  event.chosen = chosen;
  event.switched = switched;
  events_.push_back(std::move(event));

  // Age the scores after the decision: next epoch's comparison weighs
  // this epoch's traffic at 1/2, older traffic geometrically less — the
  // integer forgetting of HeatTracker::decay at shift 1.
  for (std::uint64_t& s : scores_) s -= s >> 1;
}

Json AdaptiveSelector::stats() const {
  Json policy = Json::object();
  policy.set("epoch_batches", Json(std::uint64_t{policy_.epoch_batches}));
  policy.set("decay_shift", Json(std::uint64_t{1}));  // scores halve
  Json jcands = Json::array();
  for (const TreeMapping* c : policy_.candidates) {
    jcands.push_back(Json(c->name()));
  }
  policy.set("candidates", std::move(jcands));

  Json j = Json::object();
  j.set("policy", std::move(policy));
  j.set("batches_observed", Json(batches_total_));
  j.set("epochs_planned", Json(epochs_planned_));
  j.set("mappings_minted", Json(switches_));
  j.set("switches", Json(switches_));
  j.set("active", Json(active_ == nullptr ? "" : active_->name()));
  Json jscores = Json::array();
  for (const std::uint64_t s : scores_) jscores.push_back(Json(s));
  j.set("scores", std::move(jscores));
  // The tail of the event log (bounded payload; the full log is in
  // events() for tests and tools).
  Json jevents = Json::array();
  const std::size_t first = events_.size() > 8 ? events_.size() - 8 : 0;
  for (std::size_t e = first; e < events_.size(); ++e) {
    jevents.push_back(events_[e].to_json());
  }
  j.set("recent_events", std::move(jevents));
  return j;
}

}  // namespace pmtree::serve
