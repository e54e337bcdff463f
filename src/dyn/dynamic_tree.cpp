#include "pmtree/dyn/dynamic_tree.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pmtree::dyn {

namespace {

/// `max_levels` if it is in [1, 26]; throws otherwise. Called from the
/// first member's initializer, so nothing is built for a bad value.
std::uint32_t checked_levels(std::uint32_t max_levels) {
  if (max_levels < 1 || max_levels > 26) {
    throw std::invalid_argument("DynamicTree max_levels must be in [1, 26]");
  }
  return max_levels;
}

}  // namespace

DynamicTree::DynamicTree(std::uint32_t max_levels)
    : envelope_(checked_levels(max_levels)),
      live_(max_levels),
      level_count_(max_levels, 0) {
  set_live(envelope_.root());
}

void DynamicTree::ensure_level(std::uint32_t j) {
  assert(j < envelope_.levels());
  if (!live_[j].empty()) return;
  live_[j].assign((envelope_.level_width(j) + 63) / 64, 0);
}

void DynamicTree::set_live(Node n) {
  ensure_level(n.level);
  live_[n.level][n.index >> 6] |= std::uint64_t{1} << (n.index & 63);
  level_count_[n.level] += 1;
  size_ += 1;
  if (n.level > deepest_) deepest_ = n.level;
  version_ += 1;
}

void DynamicTree::clear_live(Node n) {
  live_[n.level][n.index >> 6] &= ~(std::uint64_t{1} << (n.index & 63));
  level_count_[n.level] -= 1;
  size_ -= 1;
  while (deepest_ > 0 && level_count_[deepest_] == 0) deepest_ -= 1;
  version_ += 1;
}

DynStatus DynamicTree::insert_node(Node target) {
  if (!envelope_.contains(target)) return DynStatus::kNotInEnvelope;
  if (is_live(target)) return DynStatus::kOccupied;
  // The root is live from construction, so any valid non-live target has
  // level >= 1 and needs a live parent.
  if (!is_live(parent(target))) return DynStatus::kParentMissing;
  set_live(target);
  return DynStatus::kOk;
}

DynStatus DynamicTree::remove_leaf(Node leaf) {
  if (!is_live(leaf)) return DynStatus::kNotLive;
  if (leaf.level == 0) return DynStatus::kIsRoot;
  if (leaf.level + 1 < envelope_.levels() &&
      (is_live(left_child(leaf)) || is_live(right_child(leaf)))) {
    return DynStatus::kHasChildren;
  }
  clear_live(leaf);
  return DynStatus::kOk;
}

std::vector<Node> DynamicTree::live_nodes() const {
  std::vector<Node> out;
  out.reserve(size_);
  for_each_live([&](Node n) { out.push_back(n); });
  return out;
}

bool DynamicTree::validate() const {
  if (!is_live(envelope_.root())) return false;
  std::uint64_t total = 0;
  std::uint32_t max_live_level = 0;
  bool parents_ok = true;
  for_each_live([&](Node n) {
    total += 1;
    max_live_level = std::max(max_live_level, n.level);
    if (n.level > 0 && !is_live(parent(n))) parents_ok = false;
  });
  if (!parents_ok || total != size_ || max_live_level != deepest_) {
    return false;
  }
  for (std::uint32_t j = 0; j < envelope_.levels(); ++j) {
    std::uint64_t c = 0;
    for (const std::uint64_t w : live_[j]) {
      c += static_cast<std::uint64_t>(std::popcount(w));
    }
    if (c != level_count_[j]) return false;
  }
  return true;
}

}  // namespace pmtree::dyn
