#include "pmtree/templates/instance.hpp"

#include <algorithm>

namespace pmtree {

void SubtreeInstance::append_nodes(std::vector<Node>& out) const {
  out.reserve(out.size() + size);
  const std::uint32_t depth = levels();
  for (std::uint32_t d = 0; d < depth; ++d) {
    const std::uint64_t first = root.index << d;
    for (std::uint64_t off = 0; off < pow2(d); ++off) {
      out.push_back(Node{root.level + d, first + off});
    }
  }
}

std::vector<Node> SubtreeInstance::nodes() const {
  std::vector<Node> out;
  append_nodes(out);
  return out;
}

void LevelRunInstance::append_nodes(std::vector<Node>& out) const {
  out.reserve(out.size() + size);
  for (std::uint64_t t = 0; t < size; ++t) {
    out.push_back(Node{first.level, first.index + t});
  }
}

std::vector<Node> LevelRunInstance::nodes() const {
  std::vector<Node> out;
  append_nodes(out);
  return out;
}

void PathInstance::append_nodes(std::vector<Node>& out) const {
  out.reserve(out.size() + size);
  Node cur = start;
  for (std::uint64_t t = 0; t < size; ++t) {
    out.push_back(cur);
    if (t + 1 < size) cur = parent(cur);
  }
}

std::vector<Node> PathInstance::nodes() const {
  std::vector<Node> out;
  append_nodes(out);
  return out;
}

std::uint64_t CompositeInstance::size() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : parts_) total += p.size();
  return total;
}

bool CompositeInstance::fits(const CompleteBinaryTree& tree) const noexcept {
  return std::all_of(parts_.begin(), parts_.end(),
                     [&](const auto& p) { return p.fits(tree); });
}

void CompositeInstance::append_nodes(std::vector<Node>& out) const {
  out.reserve(out.size() + size());
  for (const auto& p : parts_) p.append_nodes(out);
}

std::vector<Node> CompositeInstance::nodes() const {
  std::vector<Node> out;
  append_nodes(out);
  return out;
}

bool CompositeInstance::is_disjoint() const {
  auto all = nodes();
  std::sort(all.begin(), all.end());
  return std::adjacent_find(all.begin(), all.end()) == all.end();
}

}  // namespace pmtree
