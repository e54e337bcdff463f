#include "pmtree/analysis/cost.hpp"

#include <algorithm>

#include "pmtree/templates/enumerate.hpp"
#include "pmtree/templates/sampler.hpp"
#include "pmtree/util/parallel.hpp"

namespace pmtree {

namespace {

/// The paper's cost of one access is the occupancy of its busiest module
/// (its rounds; 0 for an empty access). This is the one place that counts
/// it. The histogram stays zero between calls — each count resets only the
/// entries it touched, so a small access on a large module count stays
/// O(access size).
class BusiestModule {
 public:
  /// Busiest-module occupancy of `nodes` under `mapping`.
  [[nodiscard]] std::uint32_t rounds(const TreeMapping& mapping,
                                     std::span<const Node> nodes) {
    colors_.resize(nodes.size());
    mapping.color_of_batch(nodes, colors_);
    if (histogram_.size() < mapping.num_modules()) {
      histogram_.assign(mapping.num_modules(), 0);
    }
    std::uint32_t worst = 0;
    for (const Color c : colors_) worst = std::max(worst, ++histogram_[c]);
    for (const Color c : colors_) histogram_[c] = 0;
    return worst;
  }

  /// rounds() - 1, and 0 for an empty access.
  [[nodiscard]] std::uint64_t conflicts(const TreeMapping& mapping,
                                        std::span<const Node> nodes) {
    const std::uint32_t worst = rounds(mapping, nodes);
    return worst == 0 ? 0 : worst - 1;
  }

 private:
  std::vector<Color> colors_;
  std::vector<std::uint32_t> histogram_;
};

BusiestModule& thread_scratch() {
  thread_local BusiestModule scratch;
  return scratch;
}

/// Instances per chunk of the parallel scan. Only a throughput knob: chunk
/// boundaries never influence results (see util/parallel.hpp).
constexpr std::uint64_t kEvalGrain = 1024;

/// Shared accumulation loop for the evaluate_/sample_ functions.
///
/// The sequential scan keeps the witness of the *first* instance attaining
/// the final maximum. To reproduce that bit-for-bit under the chunked
/// parallel scan, observe() takes the instance's global index: each thread
/// sees its indices in ascending order (parallel_chunks guarantees it), so
/// per-thread state is "max, sum, count, and the lowest index attaining
/// max"; merging two states by (max descending, index ascending) is
/// order-independent and lands on exactly the sequential answer. Sums are
/// integers, so the mean is exact too.
class CostAccumulator {
 public:
  explicit CostAccumulator(const TreeMapping& mapping) : mapping_(mapping) {}

  void observe(std::uint64_t index, std::span<const Node> nodes) {
    const std::uint64_t cost = scratch_.conflicts(mapping_, nodes);

    count_ += 1;
    sum_ += cost;
    // Copy the nodes only when this instance becomes the witness; indices
    // ascend within a thread, so no index tie-check is needed here.
    if (!has_witness_ || cost > max_) {
      max_ = std::max(max_, cost);
      witness_.assign(nodes.begin(), nodes.end());
      witness_index_ = index;
      has_witness_ = true;
    }
  }

  /// Folds `other` in. Commutative and associative, so any merge order
  /// (and any thread count) yields the same state.
  void merge(CostAccumulator&& other) {
    sum_ += other.sum_;
    count_ += other.count_;
    if (!other.has_witness_) return;
    if (!has_witness_ || other.max_ > max_ ||
        (other.max_ == max_ && other.witness_index_ < witness_index_)) {
      max_ = std::max(max_, other.max_);
      witness_ = std::move(other.witness_);
      witness_index_ = other.witness_index_;
      has_witness_ = true;
    }
  }

  [[nodiscard]] FamilyCost take() {
    FamilyCost result;
    result.max_conflicts = max_;
    result.instances = count_;
    result.mean_conflicts =
        count_ == 0 ? 0.0
                    : static_cast<double>(sum_) / static_cast<double>(count_);
    result.witness = std::move(witness_);
    return result;
  }

 private:
  const TreeMapping& mapping_;
  BusiestModule scratch_;  // reused across observes
  std::vector<Node> witness_;
  std::uint64_t witness_index_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t count_ = 0;
  bool has_witness_ = false;
};

/// Evaluates instances [0, total) of an indexed family. `append(idx, buf)`
/// appends instance idx's nodes to buf (cleared by the driver).
template <typename AppendNodes>
FamilyCost evaluate_indexed(const TreeMapping& mapping, std::uint64_t total,
                            const EvalOptions& opts,
                            const AppendNodes& append) {
  const unsigned threads = total < opts.sequential_cutoff
                              ? 1
                              : resolve_threads(opts.threads);
  std::vector<CostAccumulator> accs(threads, CostAccumulator(mapping));
  std::vector<std::vector<Node>> bufs(threads);
  parallel_chunks(total, threads, kEvalGrain,
                  [&](unsigned tid, std::uint64_t begin, std::uint64_t end) {
                    auto& acc = accs[tid];
                    auto& buf = bufs[tid];
                    for (std::uint64_t i = begin; i < end; ++i) {
                      buf.clear();
                      append(i, buf);
                      acc.observe(i, buf);
                    }
                  });
  for (unsigned t = 1; t < threads; ++t) accs[0].merge(std::move(accs[t]));
  return accs[0].take();
}

/// Sampled families: instances are drawn sequentially (identical Rng
/// stream at every thread count), then evaluated as an indexed family.
template <typename Instance>
FamilyCost evaluate_presampled(const TreeMapping& mapping,
                               const std::vector<Instance>& instances,
                               const EvalOptions& opts) {
  return evaluate_indexed(mapping, instances.size(), opts,
                          [&](std::uint64_t i, std::vector<Node>& buf) {
                            instances[i].append_nodes(buf);
                          });
}

}  // namespace

std::uint64_t conflicts(const TreeMapping& mapping, std::span<const Node> nodes) {
  return thread_scratch().conflicts(mapping, nodes);
}

std::uint64_t rounds(const TreeMapping& mapping, std::span<const Node> nodes) {
  return thread_scratch().rounds(mapping, nodes);
}

FamilyCost evaluate_subtrees(const TreeMapping& mapping, std::uint64_t K,
                             const EvalOptions& opts) {
  const auto& tree = mapping.tree();
  return evaluate_indexed(mapping, count_subtrees(tree, K), opts,
                          [&](std::uint64_t i, std::vector<Node>& buf) {
                            subtree_at(tree, K, i).append_nodes(buf);
                          });
}

FamilyCost evaluate_level_runs(const TreeMapping& mapping, std::uint64_t K,
                               const EvalOptions& opts) {
  const auto& tree = mapping.tree();
  return evaluate_indexed(mapping, count_level_runs(tree, K), opts,
                          [&](std::uint64_t i, std::vector<Node>& buf) {
                            level_run_at(tree, K, i).append_nodes(buf);
                          });
}

FamilyCost evaluate_paths(const TreeMapping& mapping, std::uint64_t K,
                          const EvalOptions& opts) {
  const auto& tree = mapping.tree();
  return evaluate_indexed(mapping, count_paths(tree, K), opts,
                          [&](std::uint64_t i, std::vector<Node>& buf) {
                            path_at(tree, K, i).append_nodes(buf);
                          });
}

FamilyCost sample_subtrees(const TreeMapping& mapping, std::uint64_t K,
                           std::uint64_t samples, Rng& rng,
                           const EvalOptions& opts) {
  std::vector<SubtreeInstance> drawn;
  drawn.reserve(samples);
  for (std::uint64_t s = 0; s < samples; ++s) {
    if (auto inst = sample_subtree(mapping.tree(), K, rng)) {
      drawn.push_back(*inst);
    }
  }
  return evaluate_presampled(mapping, drawn, opts);
}

FamilyCost sample_level_runs(const TreeMapping& mapping, std::uint64_t K,
                             std::uint64_t samples, Rng& rng,
                             const EvalOptions& opts) {
  std::vector<LevelRunInstance> drawn;
  drawn.reserve(samples);
  for (std::uint64_t s = 0; s < samples; ++s) {
    if (auto inst = sample_level_run(mapping.tree(), K, rng)) {
      drawn.push_back(*inst);
    }
  }
  return evaluate_presampled(mapping, drawn, opts);
}

FamilyCost sample_paths(const TreeMapping& mapping, std::uint64_t K,
                        std::uint64_t samples, Rng& rng,
                        const EvalOptions& opts) {
  std::vector<PathInstance> drawn;
  drawn.reserve(samples);
  for (std::uint64_t s = 0; s < samples; ++s) {
    if (auto inst = sample_path(mapping.tree(), K, rng)) {
      drawn.push_back(*inst);
    }
  }
  return evaluate_presampled(mapping, drawn, opts);
}

FamilyCost sample_composites(const TreeMapping& mapping, std::uint64_t D,
                             std::uint64_t c, std::uint64_t samples, Rng& rng,
                             const EvalOptions& opts) {
  CompositeSpec spec;
  spec.total_size = D;
  spec.components = c;
  std::vector<CompositeInstance> drawn;
  drawn.reserve(samples);
  for (std::uint64_t s = 0; s < samples; ++s) {
    if (auto inst = sample_composite(mapping.tree(), spec, rng)) {
      drawn.push_back(std::move(*inst));
    }
  }
  return evaluate_presampled(mapping, drawn, opts);
}

}  // namespace pmtree
