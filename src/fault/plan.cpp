#include "pmtree/fault/plan.hpp"

#include <algorithm>

namespace pmtree::fault {

Json FaultPlan::to_json() const {
  Json j = Json::object();
  Json fails = Json::array();
  for (const FailStop& f : fail_stops_) {
    Json e = Json::object();
    e.set("module", Json(std::uint64_t{f.module}));
    e.set("cycle", Json(f.cycle));
    fails.push_back(std::move(e));
  }
  j.set("fail_stops", std::move(fails));
  Json slows = Json::array();
  for (const Slowdown& s : slowdowns_) {
    Json e = Json::object();
    e.set("module", Json(std::uint64_t{s.module}));
    e.set("begin", Json(s.begin));
    e.set("end", Json(s.end));
    e.set("period", Json(s.period));
    slows.push_back(std::move(e));
  }
  j.set("slowdowns", std::move(slows));
  return j;
}

FaultTimeline::FaultTimeline(const FaultPlan& plan, std::uint32_t modules) {
  fail_cycle_.assign(modules, kNever);
  redirect_.resize(modules);
  slow_by_module_.resize(modules);

  for (const FailStop& f : plan.fail_stops()) {
    if (f.module >= modules) continue;
    fail_cycle_[f.module] = std::min(fail_cycle_[f.module], f.cycle);
  }
  for (const Slowdown& s : plan.slowdowns()) {
    if (s.module >= modules || s.period <= 1 || s.end <= s.begin) continue;
    slow_by_module_[s.module].push_back(s);
  }

  // Spare one module if the plan killed them all: the latest failure
  // (ties: highest id) is the natural survivor, and a deterministic one.
  bool any_live = false;
  for (std::uint32_t m = 0; m < modules; ++m) {
    any_live = any_live || fail_cycle_[m] == kNever;
  }
  if (!any_live && modules > 0) {
    std::uint32_t spare = 0;
    for (std::uint32_t m = 1; m < modules; ++m) {
      if (fail_cycle_[m] >= fail_cycle_[spare]) spare = m;
    }
    fail_cycle_[spare] = kNever;
  }

  std::vector<std::uint32_t> live;
  for (std::uint32_t m = 0; m < modules; ++m) {
    redirect_[m] = m;
    if (fail_cycle_[m] == kNever) {
      live.push_back(m);
    } else {
      dead_.push_back(m);
      fail_events_.push_back(FailEvent{fail_cycle_[m], m});
    }
  }
  for (std::size_t j = 0; j < dead_.size(); ++j) {
    redirect_[dead_[j]] = live[j % live.size()];
  }
  std::sort(fail_events_.begin(), fail_events_.end(),
            [](const FailEvent& a, const FailEvent& b) {
              if (a.cycle != b.cycle) return a.cycle < b.cycle;
              return a.module < b.module;
            });
}

}  // namespace pmtree::fault
