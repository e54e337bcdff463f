#include "pmtree/analysis/profile.hpp"

#include <algorithm>

#include "pmtree/analysis/cost.hpp"
#include "pmtree/templates/enumerate.hpp"
#include "pmtree/util/bits.hpp"

namespace pmtree {

std::vector<std::uint64_t> level_color_histogram(const TreeMapping& mapping,
                                                 std::uint32_t j) {
  std::vector<std::uint64_t> histogram(mapping.num_modules(), 0);
  for (std::uint64_t i = 0; i < mapping.tree().level_width(j); ++i) {
    histogram[mapping.color_of(v(i, j))] += 1;
  }
  return histogram;
}

namespace {

LevelProfile make_profile(const TreeMapping& mapping) {
  LevelProfile profile;
  profile.worst_by_level.assign(mapping.tree().levels(), 0);
  return profile;
}

void bump(LevelProfile& profile, std::uint32_t level, std::uint64_t cost) {
  profile.worst_by_level[level] = std::max(profile.worst_by_level[level], cost);
  profile.overall = std::max(profile.overall, cost);
}

}  // namespace

LevelProfile subtree_profile(const TreeMapping& mapping, std::uint64_t K) {
  LevelProfile profile = make_profile(mapping);
  const auto& tree = mapping.tree();
  const std::uint64_t count = count_subtrees(tree, K);
  for (std::uint64_t i = 0; i < count; ++i) {
    const SubtreeInstance s = subtree_at(tree, K, i);
    bump(profile, s.root.level, conflicts(mapping, s.nodes()));
  }
  return profile;
}

LevelProfile level_run_profile(const TreeMapping& mapping, std::uint64_t K) {
  LevelProfile profile = make_profile(mapping);
  const auto& tree = mapping.tree();
  const std::uint64_t count = count_level_runs(tree, K);
  for (std::uint64_t i = 0; i < count; ++i) {
    const LevelRunInstance l = level_run_at(tree, K, i);
    bump(profile, l.first.level, conflicts(mapping, l.nodes()));
  }
  return profile;
}

LevelProfile path_profile(const TreeMapping& mapping, std::uint64_t K) {
  LevelProfile profile = make_profile(mapping);
  const auto& tree = mapping.tree();
  const std::uint64_t count = count_paths(tree, K);
  for (std::uint64_t i = 0; i < count; ++i) {
    const PathInstance p = path_at(tree, K, i);
    bump(profile, p.start.level, conflicts(mapping, p.nodes()));
  }
  return profile;
}

std::vector<ColorUsage> color_report(const TreeMapping& mapping) {
  std::vector<ColorUsage> report(mapping.num_modules());
  const auto& tree = mapping.tree();
  for (std::uint32_t j = 0; j < tree.levels(); ++j) {
    for (std::uint64_t i = 0; i < tree.level_width(j); ++i) {
      ColorUsage& usage = report[mapping.color_of(v(i, j))];
      if (!usage.used) {
        usage.first_level = j;
        usage.used = true;
      }
      usage.last_level = j;
      usage.nodes += 1;
    }
  }
  return report;
}

}  // namespace pmtree
