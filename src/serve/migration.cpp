#include "pmtree/serve/migration.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pmtree::serve {

namespace {

const MigrationPolicy& checked(const TreeMapping& base,
                               const MigrationPolicy& policy) {
  MigrationPlanner::check(base, policy);
  return policy;
}

}  // namespace

Json MigrationEvent::to_json() const {
  Json j = Json::object();
  j.set("epoch", Json(epoch));
  j.set("cycle", Json(cycle));
  j.set("batches", Json(batches));
  j.set("peak_before", Json(peak_before));
  j.set("peak_after", Json(peak_after));
  Json jmoves = Json::array();
  for (const auto& [sid, rot] : moves) {
    Json m = Json::object();
    m.set("subtree", Json(std::uint64_t{sid}));
    m.set("rotation", Json(std::uint64_t{rot}));
    jmoves.push_back(std::move(m));
  }
  j.set("moves", std::move(jmoves));
  return j;
}

// ---------------------------------------------------------------------------
// HeatTracker

HeatTracker::HeatTracker(std::uint32_t subtree_level, std::uint32_t modules)
    : level_(subtree_level), modules_(modules) {
  if (modules_ == 0) {
    throw std::invalid_argument("heat ledger needs at least one module");
  }
  if (level_ >= std::numeric_limits<std::size_t>::digits ||
      (std::size_t{1} << level_) >
          std::numeric_limits<std::size_t>::max() / modules_) {
    throw std::invalid_argument(
        "heat ledger of 2^subtree_level x modules cells overflows size_t");
  }
  const std::size_t subtrees = std::size_t{1} << level_;
  matrix_.assign(subtrees * modules_, 0);
  subtree_total_.assign(subtrees, 0);
  fixed_.assign(modules_, 0);
}

void HeatTracker::observe(std::span<const Node> nodes,
                          std::span<const Color> base_colors) {
  if (nodes.size() != base_colors.size()) {
    throw std::invalid_argument("heat ledger: one base color per node");
  }
  // Checked before any fold, so a rejected batch leaves the ledger as it
  // was. An index below 2^level keeps the subtree id below 2^level_.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (base_colors[i] >= modules_) {
      throw std::out_of_range("heat ledger: base color past the modules");
    }
    if (nodes[i].level < 64 && (nodes[i].index >> nodes[i].level) != 0) {
      throw std::out_of_range("heat ledger: node index past its level");
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node n = nodes[i];
    const Color c = base_colors[i];
    if (n.level >= level_) {
      const std::uint32_t shift = n.level - level_;
      const std::uint64_t sid = shift >= 64 ? 0 : n.index >> shift;
      matrix_[sid * modules_ + c] += 1;
      subtree_total_[sid] += 1;
    } else {
      fixed_[c] += 1;
    }
    total_ += 1;
  }
}

void HeatTracker::decay(std::uint32_t shift) noexcept {
  // h -= h >> shift: geometric forgetting with integer arithmetic only.
  // shift >= 64 would be UB on the raw operator; treat it as "no decay".
  if (shift >= 64) return;
  const auto age = [shift](std::uint64_t& h, std::uint64_t& lost) {
    const std::uint64_t d = shift == 0 ? h : h >> shift;
    h -= d;
    lost += d;
  };
  std::uint64_t lost = 0;
  for (std::uint64_t& h : matrix_) age(h, lost);
  std::uint64_t fixed_lost = 0;
  for (std::uint64_t& h : fixed_) age(h, fixed_lost);
  // Row sums are recomputed exactly (per-cell floors do not commute with
  // the row-sum shift).
  const std::size_t subtrees = subtree_total_.size();
  for (std::size_t sid = 0; sid < subtrees; ++sid) {
    std::uint64_t sum = 0;
    for (std::uint32_t c = 0; c < modules_; ++c) {
      sum += matrix_[sid * modules_ + c];
    }
    subtree_total_[sid] = sum;
  }
  total_ -= lost + fixed_lost;
}

// ---------------------------------------------------------------------------
// MigrationPlanner

void MigrationPlanner::check(const TreeMapping& base,
                             const MigrationPolicy& policy) {
  if (!policy.enabled()) {
    throw std::invalid_argument("migration policy is disabled");
  }
  if (policy.subtree_level >= base.tree().levels()) {
    throw std::invalid_argument(
        "migration subtree_level must be below the tree's level count");
  }
}

MigrationPlanner::MigrationPlanner(const TreeMapping& base,
                                   const MigrationPolicy& policy)
    : base_(base),
      policy_(checked(base, policy)),
      heat_(policy_.subtree_level, base.num_modules()) {}

void MigrationPlanner::observe(std::span<const Node> nodes,
                               std::uint64_t cycle) {
  color_scratch_.resize(nodes.size());
  // Base colors, not the current epoch's: the ledger lives in base
  // coordinates so each epoch plans from scratch (rotations never stack).
  base_.color_of_batch(
      nodes, std::span<Color>(color_scratch_.data(), color_scratch_.size()));
  heat_.observe(nodes, color_scratch_);
  batches_total_ += 1;
  batches_since_plan_ += 1;
  if (batches_since_plan_ >= policy_.epoch_batches) {
    batches_since_plan_ = 0;
    plan(cycle);
  }
}

void MigrationPlanner::plan(std::uint64_t cycle) {
  // Age the ledger first: a batch observed k epochs ago weighs
  // (1 - 2^-decay_shift)^k in this plan — uniform scaling, so the decay
  // order (before selection) does not bias which subtrees look hot.
  heat_.decay(policy_.decay_shift);
  epochs_planned_ += 1;

  const std::uint32_t M = heat_.modules();
  const std::uint32_t S = heat_.subtree_count();

  // Selection: top-k subtrees by decayed heat, ties to the smaller id —
  // a total order, so the plan is a pure function of the ledger.
  std::vector<std::uint32_t> order(S);
  for (std::uint32_t sid = 0; sid < S; ++sid) order[sid] = sid;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::uint64_t ha = heat_.subtree_heat(a);
              const std::uint64_t hb = heat_.subtree_heat(b);
              if (ha != hb) return ha > hb;
              return a < b;
            });
  const std::uint64_t threshold = std::max<std::uint64_t>(policy_.min_heat, 1);
  std::vector<std::uint32_t> selected;
  for (std::uint32_t k = 0; k < policy_.top_k && k < S; ++k) {
    if (heat_.subtree_heat(order[k]) < threshold) break;
    selected.push_back(order[k]);
  }

  // Baseline load (everything on rotation 0): fixed heat plus every
  // subtree's row. peak_before is the static mapping's predicted peak.
  std::vector<std::uint64_t> load(M, 0);
  for (std::uint32_t m = 0; m < M; ++m) load[m] = heat_.fixed_heat(m);
  for (std::uint32_t sid = 0; sid < S; ++sid) {
    for (std::uint32_t c = 0; c < M; ++c) load[c] += heat_.cell(sid, c);
  }
  std::uint64_t peak_before = 0;
  for (std::uint32_t m = 0; m < M; ++m) {
    peak_before = std::max(peak_before, load[m]);
  }
  // Lift the selected rows back out; they are placed greedily below.
  for (const std::uint32_t sid : selected) {
    for (std::uint32_t c = 0; c < M; ++c) load[c] -= heat_.cell(sid, c);
  }

  // Greedy placement, hottest first: rotation r sends base color c to
  // module (c + r) mod M; pick the r minimizing the resulting peak, ties
  // to the smallest r (so a cold or already-balanced subtree stays put).
  MigrationEvent event;
  event.epoch = epochs_planned_;
  event.cycle = cycle;
  event.batches = batches_total_;
  event.peak_before = peak_before;
  for (const std::uint32_t sid : selected) {
    Color best_rot = 0;
    std::uint64_t best_peak = ~std::uint64_t{0};
    for (std::uint32_t r = 0; r < M; ++r) {
      std::uint64_t peak = 0;
      for (std::uint32_t m = 0; m < M; ++m) {
        const std::uint32_t c = m >= r ? m - r : m + M - r;  // (m - r) mod M
        peak = std::max(peak, load[m] + heat_.cell(sid, c));
      }
      if (peak < best_peak) {
        best_peak = peak;
        best_rot = r;
      }
    }
    for (std::uint32_t m = 0; m < M; ++m) {
      const std::uint32_t c = m >= best_rot ? m - best_rot : m + M - best_rot;
      load[m] += heat_.cell(sid, c);
    }
    event.moves.emplace_back(sid, best_rot);
    if (best_rot != 0) subtrees_moved_ += 1;
  }
  std::uint64_t peak_after = 0;
  for (std::uint32_t m = 0; m < M; ++m) {
    peak_after = std::max(peak_after, load[m]);
  }
  event.peak_after = peak_after;
  events_.push_back(std::move(event));

  std::vector<Color> rotation(S, 0);
  for (const auto& [sid, rot] : events_.back().moves) rotation[sid] = rot;
  // Mint a new epoch mapping only when the table actually changes; cold
  // epochs keep the previous mapping (or the base) alive and allocation
  // stays proportional to real migrations.
  const std::vector<Color>* live =
      epochs_.empty() ? nullptr : &epochs_.back().rotation_table();
  const bool unchanged =
      live ? *live == rotation
           : std::all_of(rotation.begin(), rotation.end(),
                         [](Color r) { return r == 0; });
  if (!unchanged) {
    epochs_.emplace_back(base_, policy_.subtree_level, std::move(rotation));
  }
}

Json MigrationPlanner::stats() const {
  Json policy = Json::object();
  policy.set("epoch_batches", Json(std::uint64_t{policy_.epoch_batches}));
  policy.set("top_k", Json(std::uint64_t{policy_.top_k}));
  policy.set("subtree_level", Json(std::uint64_t{policy_.subtree_level}));
  policy.set("decay_shift", Json(std::uint64_t{policy_.decay_shift}));
  policy.set("min_heat", Json(policy_.min_heat));

  Json j = Json::object();
  j.set("policy", std::move(policy));
  j.set("batches_observed", Json(batches_total_));
  j.set("epochs_planned", Json(epochs_planned_));
  j.set("mappings_minted", Json(std::uint64_t{epochs_.size()}));
  j.set("subtrees_moved", Json(subtrees_moved_));
  j.set("heat_total", Json(heat_.total()));
  if (!events_.empty()) {
    j.set("last_peak_before", Json(events_.back().peak_before));
    j.set("last_peak_after", Json(events_.back().peak_after));
  }
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
