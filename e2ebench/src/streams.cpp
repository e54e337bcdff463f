#include "streams.hpp"

#include <utility>

#include "pmtree/util/bits.hpp"
#include "pmtree/util/rng.hpp"

namespace e2e {

using pmtree::Node;
using pmtree::Rng;
using pmtree::serve::Request;
using pmtree::serve::RequestKind;

namespace {

/// Stamps client, per-client seq and the open-loop submit cycle.
class Stamper {
 public:
  Stamper(std::uint32_t clients, const Arrivals& arrivals)
      : arrivals_(arrivals), next_seq_(clients, 0) {}

  Request next(Rng& rng) {
    const bool crowd = arrivals_.burst_every != 0 && index_ != 0 &&
                       index_ % arrivals_.burst_every < arrivals_.burst_size;
    if (!crowd) clock_ += rng.below(2 * arrivals_.mean_gap + 1);
    index_ += 1;
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(next_seq_.size()));
    r.seq = next_seq_[r.client]++;
    r.submit_cycle = clock_;
    return r;
  }

 private:
  Arrivals arrivals_;
  std::vector<std::uint64_t> next_seq_;
  std::uint64_t clock_ = 0;
  std::size_t index_ = 0;
};

void push_root_path(Node n, std::vector<Node>& out) {
  out.push_back(n);
  while (n.level > 0) {
    n = pmtree::parent(n);
    out.push_back(n);
  }
}

}  // namespace

std::vector<Request> paths_mix_stream(const pmtree::CompleteBinaryTree& tree,
                                      std::size_t count, std::uint32_t clients,
                                      const Arrivals& arrivals,
                                      std::uint64_t seed) {
  Rng rng(pmtree::mix64(seed ^ 0xB16u));
  Stamper stamp(clients, arrivals);
  const std::uint32_t bottom = tree.levels() - 1;
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request r = stamp.next(rng);
    const std::uint64_t kind = rng.below(10);
    if (kind < 7) {
      push_root_path(pmtree::v(rng.below(pmtree::pow2(bottom)), bottom),
                     r.nodes);
    } else if (kind < 9) {
      const Node n = pmtree::v(
          rng.below(pmtree::pow2(bottom)) & ~std::uint64_t{1}, bottom);
      r.nodes.push_back(n);
      r.nodes.push_back(pmtree::sibling(n));
    } else {
      const std::uint32_t level = bottom - 1;
      const std::uint64_t width = rng.between(4, 8);
      const std::uint64_t first = rng.below(pmtree::pow2(level) - width);
      for (std::uint64_t k = 0; k < width; ++k) {
        r.nodes.push_back(pmtree::v(first + k, level));
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Request> churn_stream(std::uint32_t levels,
                                  std::uint32_t write_levels,
                                  std::size_t count, std::uint32_t clients,
                                  const Arrivals& arrivals,
                                  std::uint64_t seed) {
  Rng rng(pmtree::mix64(seed ^ 0xD1Du));
  Stamper stamp(clients, arrivals);
  const std::uint32_t bottom = levels - 1;
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request r = stamp.next(rng);
    const std::uint64_t draw = rng.below(100);
    if (draw < 60) {
      push_root_path(pmtree::v(rng.below(pmtree::pow2(bottom)), bottom),
                     r.nodes);
    } else {
      const auto level =
          static_cast<std::uint32_t>(rng.between(1, write_levels));
      const Node n = pmtree::v(rng.below(pmtree::pow2(level)), level);
      r.kind = draw < 85 ? RequestKind::kInsert : RequestKind::kErase;
      r.target = n;
      r.payload = static_cast<std::int64_t>(i);
      push_root_path(n, r.nodes);
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<std::vector<Node>> hot_leaves(const pmtree::TreeMapping& mapping,
                                          std::uint32_t subtree_level,
                                          std::size_t subtrees,
                                          std::size_t per_subtree) {
  const std::uint32_t bottom = mapping.tree().levels() - 1;
  const pmtree::Color target = mapping.color_of(pmtree::v(0, bottom));
  const std::uint64_t span = pmtree::pow2(bottom - subtree_level);
  std::vector<std::vector<Node>> hot;
  for (std::uint64_t sid = 0;
       sid < pmtree::pow2(subtree_level) && hot.size() < subtrees; ++sid) {
    std::vector<Node> leaves;
    for (std::uint64_t k = 0; k < span && leaves.size() < per_subtree; ++k) {
      const Node n = pmtree::v(sid * span + k, bottom);
      if (mapping.color_of(n) == target) leaves.push_back(n);
    }
    if (leaves.size() == per_subtree) hot.push_back(std::move(leaves));
  }
  return hot;
}

std::vector<Request> hot_spot_stream(
    const pmtree::CompleteBinaryTree& tree,
    const std::vector<std::vector<Node>>& hot, std::size_t count,
    std::uint32_t clients, const Arrivals& arrivals, std::uint64_t seed) {
  Rng rng(pmtree::mix64(seed ^ 0x407u));
  Stamper stamp(clients, arrivals);
  // Integer Zipf CDF over the hot subtrees: weight 840 / (s + 1).
  std::vector<std::uint64_t> cdf;
  std::uint64_t acc = 0;
  for (std::size_t s = 0; s < hot.size(); ++s) {
    acc += 840 / (s + 1);
    cdf.push_back(acc);
  }
  const std::uint32_t bottom = tree.levels() - 1;
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request r = stamp.next(rng);
    if (rng.below(10) < 8) {
      const std::uint64_t draw = rng.below(acc);
      std::size_t s = 0;
      while (cdf[s] <= draw) ++s;
      const std::vector<Node>& leaves = hot[s];
      const std::size_t start = rng.below(leaves.size());
      for (std::size_t k = 0; k < 3; ++k) {
        r.nodes.push_back(leaves[(start + k) % leaves.size()]);
      }
    } else {
      push_root_path(pmtree::v(rng.below(pmtree::pow2(bottom)), bottom),
                     r.nodes);
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Node> monochrome_under(const pmtree::TreeMapping& by) {
  const std::uint32_t bottom = by.tree().levels() - 1;
  const pmtree::Color target = by.color_of(pmtree::v(0, bottom));
  std::vector<Node> out;
  for (std::uint64_t i = 0; i < pmtree::pow2(bottom); ++i) {
    if (by.color_of(pmtree::v(i, bottom)) == target) {
      out.push_back(pmtree::v(i, bottom));
    }
  }
  return out;
}

std::vector<Request> monochrome_stream(const pmtree::CompleteBinaryTree& tree,
                                       const std::vector<Node>& hot,
                                       std::size_t count,
                                       std::uint32_t clients,
                                       const Arrivals& arrivals,
                                       std::uint64_t seed) {
  Rng rng(pmtree::mix64(seed ^ 0xAD7u));
  Stamper stamp(clients, arrivals);
  const std::uint32_t levels = tree.levels();
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request r = stamp.next(rng);
    if (rng.below(10) < 8) {
      const std::size_t start = rng.below(hot.size());
      for (std::size_t k = 0; k < 3; ++k) {
        r.nodes.push_back(hot[(start + k * 7) % hot.size()]);
      }
    } else {
      for (int k = 0; k < 2; ++k) {
        const auto level = static_cast<std::uint32_t>(rng.below(levels));
        r.nodes.push_back(pmtree::v(rng.below(pmtree::pow2(level)), level));
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Request> range_scan_stream(const pmtree::CompleteBinaryTree& tree,
                                       std::uint32_t min_level,
                                       std::size_t count,
                                       std::uint32_t clients,
                                       const Arrivals& arrivals,
                                       std::uint64_t deadline,
                                       std::uint64_t seed) {
  Rng rng(pmtree::mix64(seed ^ 0x5CAu));
  Stamper stamp(clients, arrivals);
  const std::uint32_t bottom = tree.levels() - 1;
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request r = stamp.next(rng);
    r.deadline_cycles = deadline;
    const auto level =
        static_cast<std::uint32_t>(rng.between(min_level, bottom));
    const std::uint64_t width = rng.between(4, 16);
    const std::uint64_t first = rng.below(pmtree::pow2(level) - width + 1);
    for (std::uint64_t k = 0; k < width; ++k) {
      r.nodes.push_back(pmtree::v(first + k, level));
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace e2e
