#include "pmtree/dyn/incremental.hpp"

#include <cassert>

#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"

namespace pmtree::dyn {

IncrementalColorer::IncrementalColorer(
    std::unique_ptr<const TreeMapping> mapping)
    : TreeMapping(mapping->tree()),
      mapping_(std::move(mapping)),
      touched_(tree().levels()) {}

IncrementalColorer IncrementalColorer::color(CompleteBinaryTree envelope,
                                             std::uint32_t N,
                                             std::uint32_t k) {
  return IncrementalColorer(std::make_unique<ColorMapping>(envelope, N, k));
}

IncrementalColorer IncrementalColorer::label_tree(CompleteBinaryTree envelope,
                                                  std::uint32_t M) {
  return IncrementalColorer(std::make_unique<LabelTreeMapping>(envelope, M));
}

void IncrementalColorer::touch(Node n) {
  assert(tree().contains(n));
  touches_ += 1;
  std::vector<std::uint64_t>& bits = touched_[n.level];
  if (bits.empty()) bits.assign((tree().level_width(n.level) + 63) / 64, 0);
  std::uint64_t& word = bits[n.index >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (n.index & 63);
  if ((word & bit) == 0) {
    word |= bit;
    nodes_colored_ += 1;
  }
}

void IncrementalColorer::touch(std::span<const Node> nodes) {
  for (const Node n : nodes) touch(n);
}

std::string IncrementalColorer::name() const {
  return "INCR-" + mapping_->name();
}

}  // namespace pmtree::dyn
