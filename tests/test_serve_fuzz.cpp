// Seeded property fuzzer of the serve layer (DESIGN.md §11, §13). One fixed
// master seed draws Server and Forest configurations over trees of 3–10
// levels under COLOR, LABEL-TREE and modulo mappings, with every slot
// option drawn: admission, batching (a batch cap of 2^63 included),
// retries, a fault plan that is absent, empty or random, migration,
// adaptive selection, arenas and, for a Server, a dyn binding. Properties:
//
//   * a draw that breaks a rule of the slot check on purpose (two epoch
//     controllers, an epoch controller under faults or on a dyn tree, a
//     misfit candidate or subtree level, arenas or a colorer shallower
//     than the served tree, a dyn tree deeper than its colorer, a batching
//     wait past the clock's horizon), a Server's or Forest's tick past
//     that horizon, or a Forest tenant whose DRR weight times the quantum
//     overflows 64 bits, throws std::invalid_argument at construction or
//     registration and never runs;
//   * a request with a node outside its slot's tree throws
//     std::out_of_range at submit, through either overload, and nothing of
//     the refused call is queued;
//   * every accepted configuration runs at workers 1, 2 and 8 and at
//     pipeline.workers 2 and 8, dyn state fresh for each run. Every
//     response is terminal, every kOk response completes with its batch's
//     record on the report's own lanes, and responses, batches, lane
//     results, mutation logs, metrics (but the wall-time "pipeline"
//     section), final_cycle, ticks and rounds equal the 1-worker run's;
//   * with arenas, the reported TouchStats equal a recount of touch() over
//     the report's batches.
//
// The generator keeps the contracts the serve layer still leaves to its
// callers: (client, seq) is unique per slot, submit_cycle never decreases
// within a client, and every cycle, deadline and retry budget stays far
// below 2^32, so the tick clock never nears its end.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/dyn/incremental.hpp"
#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/util/rng.hpp"
#include "fault_plans.hpp"
#include "serve_compare.hpp"

namespace pmtree::serve {
namespace {

constexpr std::uint64_t kMasterSeed = 0x5EEDF022ull;
constexpr int kServerDraws = 120;
constexpr int kForestDraws = 60;
/// The batch cap a draw of 44 nodes stands for.
constexpr std::uint64_t kHugeCap = std::uint64_t{1} << 63;

/// The executor shapes every accepted configuration runs at; the first,
/// one thread without stage attribution, is the reference.
struct Shape {
  unsigned workers;
  unsigned pipeline_workers;
};
constexpr Shape kShapes[] = {{1, 0}, {2, 0}, {8, 0}, {1, 2}, {1, 8}};

/// The rule a draw breaks on purpose. The last five only a Server draw
/// breaks: its tick is the Server's own option (a Forest draw offers its
/// tick past the horizon to the Forest constructor instead), and the last
/// four need a dyn binding, which only a Server has.
enum class Break : std::uint8_t {
  kNone,
  kMigrationWithAdaptive,
  kEpochControllerUnderFaults,
  kNullCandidate,
  kCandidateOfAnotherTree,
  kCandidateOfAnotherModuleCount,
  kSubtreeLevelPastTheTree,
  kArenaOverAShallowerTree,
  kWaitPastTheHorizon,
  kTickPastTheHorizon,
  kDynWithoutColorer,
  kDynWithEpochController,
  kColorerShallowerThanTheMapping,
  kDynTreeDeeperThanTheColorer,
};
constexpr std::uint64_t kSlotBreaks = 8;  ///< the rules a Forest tenant can break
constexpr std::uint64_t kAllBreaks = 13;

/// The rule the `k`-th broken draw breaks: every rule in turn.
Break nth_break(std::uint64_t k, std::uint64_t rules) {
  return static_cast<Break>(1 + k % rules);
}

/// A cycle count past the clock's horizon: just past it, at 2^63 + 1, or
/// near the end of the clock.
std::uint64_t past_the_horizon(Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      return kClockHorizon + rng.between(1, 1024);
    case 1:
      return (std::uint64_t{1} << 63) + 1;
    default:
      return ~std::uint64_t{0} - rng.below(16);
  }
}

/// How a dyn binding is rebuilt, fresh, for every run.
struct DynRecipe {
  bool label_tree = false;
  std::uint32_t n = 0, k = 0, modules = 0;  ///< COLOR(N, k) or LABEL-TREE(M)
  std::uint32_t colorer_levels = 0;
  std::uint32_t tree_levels = 0;
  bool with_colorer = true;
  /// The Server serves the colorer itself, or else `SlotDraw::mapping`.
  bool serve_the_colorer = true;
};

struct DynState {
  std::optional<dyn::DynamicTree> tree;
  std::optional<dyn::IncrementalColorer> colorer;

  explicit DynState(const DynRecipe& r) {
    tree.emplace(r.tree_levels);
    const CompleteBinaryTree envelope(r.colorer_levels);
    colorer.emplace(r.label_tree
                        ? dyn::IncrementalColorer::label_tree(envelope,
                                                              r.modules)
                        : dyn::IncrementalColorer::color(envelope, r.n, r.k));
  }
  [[nodiscard]] DynBinding binding(const DynRecipe& r) {
    return DynBinding{&*tree, r.with_colorer ? &*colorer : nullptr};
  }
};

/// One slot's draw. It owns everything its options point at, so all of it
/// outlives every run.
struct SlotDraw {
  std::uint32_t levels = 0;
  std::unique_ptr<TreeMapping> mapping;  ///< unused when dyn serves its colorer
  std::vector<std::unique_ptr<TreeMapping>> others;  ///< candidates, placements
  std::unique_ptr<mem::MemoryBackend> memory;
  std::unique_ptr<fault::FaultPlan> faults;
  SlotOptions options;
  std::optional<DynRecipe> dyn;
  Break broken = Break::kNone;
  std::vector<Request> requests;  ///< every one inside the tree
  std::vector<Request> outside;   ///< each with one node outside the tree
  std::uint64_t submit_seed = 0;  ///< the interleaving of submit calls
};

const TreeMapping& own(SlotDraw& d, std::unique_ptr<TreeMapping> m) {
  d.others.push_back(std::move(m));
  return *d.others.back();
}

std::unique_ptr<TreeMapping> draw_mapping(Rng& rng, CompleteBinaryTree tree) {
  switch (rng.below(3)) {
    case 0:
      return std::make_unique<ColorMapping>(make_optimal_color_mapping(
          tree, static_cast<std::uint32_t>(rng.between(3, 31))));
    case 1:
      return std::make_unique<LabelTreeMapping>(
          tree, static_cast<std::uint32_t>(rng.between(3, 31)));
    default:
      return std::make_unique<ModuloMapping>(
          tree, static_cast<std::uint32_t>(rng.between(1, 17)));
  }
}

std::unique_ptr<fault::FaultPlan> random_faults(Rng& rng,
                                                std::uint32_t modules) {
  fault::RandomOptions f;
  f.seed = rng();
  // Sometimes wider than the mapping: entries past its modules are
  // ignored.
  f.modules = modules + static_cast<std::uint32_t>(rng.below(3));
  f.fail_fraction = static_cast<double>(rng.below(5)) / 8.0;
  f.fail_window = rng.between(1, 256);
  f.slowdown_count = static_cast<std::uint32_t>(rng.below(4));
  f.slowdown_window = rng.between(1, 256);
  f.slowdown_max_length = rng.between(1, 128);
  f.slowdown_max_period = rng.between(2, 6);
  return std::make_unique<fault::FaultPlan>(fault::random_plan(f));
}

/// A node inside a tree of `levels` levels.
Node inside_node(Rng& rng, std::uint32_t levels) {
  const auto level = static_cast<std::uint32_t>(rng.below(levels));
  return Node{level, rng.below(pow2(level))};
}

/// A node outside a tree of `levels` levels: past its last level, or past
/// a level's width.
Node outside_node(Rng& rng, std::uint32_t levels) {
  switch (rng.below(4)) {
    case 0:
      return Node{levels + static_cast<std::uint32_t>(rng.below(3)),
                  rng.below(2)};
    case 1: {
      const auto level = static_cast<std::uint32_t>(rng.below(levels));
      return Node{level, pow2(level) + rng.below(64)};
    }
    case 2:
      return Node{static_cast<std::uint32_t>(rng.between(levels, 63)), rng()};
    default: {
      const auto level = static_cast<std::uint32_t>(rng.below(levels));
      return Node{level, std::uint64_t{1} << rng.between(levels, 63)};
    }
  }
}

/// A payload: empty, a point, a root path, a level run, a small subtree
/// or a scatter.
std::vector<Node> draw_payload(Rng& rng, std::uint32_t levels) {
  std::vector<Node> nodes;
  const std::uint64_t shape = rng.below(20);
  if (shape == 0) return nodes;
  if (shape < 6) {
    nodes.push_back(inside_node(rng, levels));
  } else if (shape < 11) {
    Node n = inside_node(rng, levels);
    while (true) {
      nodes.push_back(n);
      if (n.level == 0) break;
      n = parent(n);
    }
  } else if (shape < 15) {
    const Node first = inside_node(rng, levels);
    const std::uint64_t room = pow2(first.level) - first.index;
    const std::uint64_t len = 1 + rng.below(std::min<std::uint64_t>(room, 9));
    for (std::uint64_t i = 0; i < len; ++i) {
      nodes.push_back(Node{first.level, first.index + i});
    }
  } else if (shape < 17) {
    const Node root = inside_node(rng, levels);
    const std::uint32_t depth = std::min<std::uint32_t>(
        levels - root.level, static_cast<std::uint32_t>(rng.between(1, 3)));
    for (std::uint32_t d = 0; d < depth; ++d) {
      for (std::uint64_t i = 0; i < pow2(d); ++i) {
        nodes.push_back(Node{root.level + d, (root.index << d) + i});
      }
    }
  } else {
    const std::uint64_t count = rng.between(2, 12);
    for (std::uint64_t i = 0; i < count; ++i) {
      nodes.push_back(inside_node(rng, levels));
    }
  }
  return nodes;
}

/// A stream over a tree of `levels` levels from up to four clients. One
/// clock advances for all of them, so submit_cycle never decreases within
/// a client; seq counts per client. With `writes`, about a third are
/// inserts or erases, a few of them aimed outside `envelope_levels`.
std::vector<Request> draw_requests(Rng& rng, std::uint32_t levels,
                                   bool writes,
                                   std::uint32_t envelope_levels) {
  const std::size_t count = rng.below(8) == 0 ? 0 : rng.between(1, 110);
  const std::uint64_t clients = rng.between(1, 4);
  std::vector<std::uint64_t> next_seq(clients, 0);
  std::vector<Request> requests;
  std::uint64_t clock = rng.below(64);
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(6);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(clients));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    r.deadline_cycles = rng.chance(1, 4) ? rng.between(1, 48) : 0;
    if (writes && rng.chance(1, 3)) {
      r.kind = rng.chance(1, 2) ? RequestKind::kInsert : RequestKind::kErase;
      r.payload = static_cast<std::int64_t>(rng.below(1000));
      r.target = rng.chance(1, 16)
                     ? outside_node(rng, envelope_levels)
                     : Node{static_cast<std::uint32_t>(
                                rng.between(1, envelope_levels - 1)),
                            0};
      if (r.target.level < envelope_levels &&
          r.target.index < pow2(r.target.level)) {
        r.target.index = rng.below(pow2(std::min(r.target.level, 4u)));
      }
      // The read set is the target's root path, clipped to the served
      // tree.
      Node n = r.target.level < levels && r.target.index < pow2(r.target.level)
                   ? r.target
                   : Node{0, 0};
      while (true) {
        r.nodes.push_back(n);
        if (n.level == 0) break;
        n = parent(n);
      }
    } else {
      r.nodes = draw_payload(rng, levels);
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

/// Zero to three requests, each with one node outside the tree, from a
/// client no good request uses.
std::vector<Request> draw_outside(Rng& rng, std::uint32_t levels) {
  std::vector<Request> out;
  if (!rng.chance(1, 3)) return out;
  const std::uint64_t count = rng.between(1, 3);
  for (std::uint64_t i = 0; i < count; ++i) {
    Request r;
    r.client = 99;
    r.seq = i;
    r.submit_cycle = rng.below(64);
    r.nodes = draw_payload(rng, levels);
    r.nodes.insert(r.nodes.begin() + static_cast<std::ptrdiff_t>(
                                         rng.below(r.nodes.size() + 1)),
                   outside_node(rng, levels));
    out.push_back(std::move(r));
  }
  return out;
}

void draw_knobs(Rng& rng, SlotOptions& o) {
  o.admission.queue_bound = rng.below(33);  // 0 behaves as 1
  o.admission.overflow =
      rng.chance(1, 2) ? OverflowPolicy::kShed : OverflowPolicy::kBlock;
  o.batch.max_batch_nodes = rng.below(49);  // 0 behaves as 1
  // The cap's edge: a batch allocates what it takes, never the cap.
  if (o.batch.max_batch_nodes == 44) o.batch.max_batch_nodes = kHugeCap;
  o.batch.max_wait_cycles = rng.below(13);
  if (rng.chance(1, 2)) {
    o.retry.max_retries = static_cast<std::uint32_t>(rng.between(1, 3));
    o.retry.attempt_timeout_cycles = rng.between(1, 24);
    o.retry.backoff_base_cycles = rng.below(9);
    o.retry.backoff_cap_cycles = rng.below(65);
  }
  using DepthSampling = engine::EngineOptions::DepthSampling;
  o.engine.sampling = rng.chance(1, 2) ? DepthSampling::kOff
                                       : DepthSampling::kEveryBusyCycle;
}

/// Draws one slot that breaks `broken`. `dyn_allowed` is false for Forest
/// tenants.
SlotDraw draw_slot(Rng& rng, bool dyn_allowed, Break broken) {
  SlotDraw d;
  d.broken = broken;
  d.levels = static_cast<std::uint32_t>(rng.between(3, 10));
  const CompleteBinaryTree tree(d.levels);
  d.mapping = draw_mapping(rng, tree);
  std::uint32_t modules = d.mapping->num_modules();
  draw_knobs(rng, d.options);
  d.submit_seed = rng();
  if (d.broken == Break::kWaitPastTheHorizon) {
    d.options.batch.max_wait_cycles = past_the_horizon(rng);
  }

  const bool dyn = dyn_allowed && (d.broken >= Break::kDynWithoutColorer ||
                                   (d.broken == Break::kNone &&
                                    rng.chance(1, 4)));
  if (dyn) {
    DynRecipe r;
    r.label_tree = rng.chance(1, 3);
    r.modules = static_cast<std::uint32_t>(rng.between(3, 15));
    r.k = static_cast<std::uint32_t>(rng.between(1, 3));
    r.n = r.k + static_cast<std::uint32_t>(rng.between(1, 3));
    r.colorer_levels = d.levels;
    r.tree_levels = d.levels - static_cast<std::uint32_t>(rng.below(2));
    switch (d.broken) {
      case Break::kDynWithoutColorer:
        r.with_colorer = false;
        r.serve_the_colorer = false;
        break;
      case Break::kColorerShallowerThanTheMapping:
        r.colorer_levels = d.levels - 1 -
                           static_cast<std::uint32_t>(rng.below(d.levels - 2));
        r.tree_levels = r.colorer_levels;
        r.serve_the_colorer = false;
        break;
      case Break::kDynTreeDeeperThanTheColorer:
        r.tree_levels =
            d.levels + static_cast<std::uint32_t>(rng.between(1, 3));
        break;
      default:
        break;
    }
    if (r.serve_the_colorer) {
      // The served mapping is the colorer; a stand-in of the same shape
      // places the arenas and seeds the adaptive candidates.
      d.mapping = r.label_tree
                      ? std::unique_ptr<TreeMapping>(
                            std::make_unique<LabelTreeMapping>(tree, r.modules))
                      : std::make_unique<ColorMapping>(tree, r.n, r.k);
      modules = d.mapping->num_modules();
    }
    d.dyn = r;
  }

  // Epoch controllers: at most one on a valid slot, none on a dyn one.
  const auto enable_migration = [&](std::uint32_t level) {
    d.options.migration.epoch_batches =
        static_cast<std::uint32_t>(rng.between(1, 6));
    d.options.migration.top_k = static_cast<std::uint32_t>(rng.between(1, 4));
    d.options.migration.subtree_level = level;
    d.options.migration.decay_shift = static_cast<std::uint32_t>(rng.below(4));
    d.options.migration.min_heat = rng.below(3);
  };
  const auto enable_adaptive = [&]() {
    d.options.adaptive.epoch_batches =
        static_cast<std::uint32_t>(rng.between(1, 6));
    d.options.adaptive.candidates.push_back(d.mapping.get());
    d.options.adaptive.candidates.push_back(
        &own(d, std::make_unique<ModuloMapping>(tree, modules)));
    if (modules >= 3 && rng.chance(1, 2)) {
      d.options.adaptive.candidates.push_back(
          &own(d, std::make_unique<LabelTreeMapping>(tree, modules)));
    }
  };
  const auto any_level = [&]() {
    return static_cast<std::uint32_t>(rng.below(d.levels));
  };
  switch (d.broken) {
    case Break::kMigrationWithAdaptive:
      enable_migration(any_level());
      enable_adaptive();
      break;
    case Break::kEpochControllerUnderFaults:
    case Break::kDynWithEpochController:
      if (rng.chance(1, 2)) {
        enable_migration(any_level());
      } else {
        enable_adaptive();
      }
      break;
    case Break::kNullCandidate:
      enable_adaptive();
      d.options.adaptive.candidates.push_back(nullptr);
      break;
    case Break::kCandidateOfAnotherTree:
      enable_adaptive();
      d.options.adaptive.candidates.push_back(&own(
          d, std::make_unique<ModuloMapping>(
                 CompleteBinaryTree(rng.chance(1, 2) ? d.levels + 1
                                                     : d.levels - 1),
                 modules)));
      break;
    case Break::kCandidateOfAnotherModuleCount:
      enable_adaptive();
      d.options.adaptive.candidates.push_back(
          &own(d, std::make_unique<ModuloMapping>(tree, modules + 1)));
      break;
    case Break::kSubtreeLevelPastTheTree:
      enable_migration(
          rng.chance(1, 4)
              ? 64
              : d.levels + static_cast<std::uint32_t>(rng.below(3)));
      break;
    default:
      if (!dyn && rng.chance(1, 3)) {
        if (rng.chance(1, 2)) {
          enable_migration(any_level());
        } else {
          enable_adaptive();
        }
      }
      break;
  }

  // Faults: none, empty or random; an epoch controller only ever meets
  // none or an empty plan, unless that is the rule this draw breaks.
  const bool epoch = d.options.migration.enabled() ||
                     d.options.adaptive.enabled();
  if (d.broken == Break::kEpochControllerUnderFaults) {
    d.faults = random_faults(rng, modules);
    d.faults->fail_stop(static_cast<std::uint32_t>(rng.below(modules)),
                        rng.below(128));
  } else {
    switch (rng.below(3)) {
      case 0:
        break;
      case 1:
        d.faults = std::make_unique<fault::FaultPlan>();
        break;
      default:
        if (!epoch) d.faults = random_faults(rng, modules);
        break;
    }
  }
  d.options.engine.faults = d.faults.get();

  // Arenas over the served tree, a deeper one, or (broken) a shallower one.
  if (d.broken == Break::kArenaOverAShallowerTree || rng.chance(1, 3)) {
    std::uint32_t arena_levels = d.levels;
    if (d.broken == Break::kArenaOverAShallowerTree) {
      arena_levels -= 1 + static_cast<std::uint32_t>(rng.below(d.levels - 2));
    } else if (rng.chance(1, 4)) {
      arena_levels += 1;
    }
    const TreeMapping& placement =
        arena_levels == d.levels && rng.chance(1, 2)
            ? *d.mapping
            : own(d, std::make_unique<ModuloMapping>(
                         CompleteBinaryTree(arena_levels),
                         static_cast<std::uint32_t>(rng.between(1, 9))));
    mem::ArenaOptions arena;
    arena.payload_bytes = static_cast<std::uint32_t>(8 * rng.between(1, 8));
    (void)rng();  // a draw the arena no longer takes; later draws keep theirs
    d.memory = std::make_unique<mem::MemoryBackend>(placement, arena);
  }
  d.options.memory = d.memory.get();

  const std::uint32_t envelope = dyn ? d.dyn->tree_levels : d.levels;
  d.requests = draw_requests(rng, d.levels, dyn, envelope);
  d.outside = draw_outside(rng, d.levels);
  return d;
}

/// Submits `d`'s stream through both overloads, in an interleaving fixed by
/// `d.submit_seed`, and tries each outside request on its way: alone, or
/// in a vector with good requests that then must not be queued either.
template <typename One, typename Many>
void submit_stream(const SlotDraw& d, One&& one, Many&& many) {
  Rng rng(d.submit_seed);
  std::size_t next_outside = 0;
  std::size_t i = 0;
  while (i < d.requests.size() || next_outside < d.outside.size()) {
    if (next_outside < d.outside.size() &&
        (i == d.requests.size() || rng.chance(1, 8))) {
      const Request& bad = d.outside[next_outside++];
      if (rng.chance(1, 2)) {
        EXPECT_THROW(one(bad), std::out_of_range);
      } else {
        std::vector<Request> batch(
            d.requests.begin() + static_cast<std::ptrdiff_t>(i),
            d.requests.begin() + static_cast<std::ptrdiff_t>(std::min(
                                     d.requests.size(), i + rng.below(4))));
        batch.insert(batch.begin() + static_cast<std::ptrdiff_t>(
                                         rng.below(batch.size() + 1)),
                     bad);
        EXPECT_THROW(many(std::move(batch)), std::out_of_range);
      }
      continue;
    }
    if (rng.chance(1, 2)) {
      one(d.requests[i++]);
    } else {
      const std::size_t end =
          std::min(d.requests.size(), i + rng.between(1, 8));
      many(std::vector<Request>(
          d.requests.begin() + static_cast<std::ptrdiff_t>(i),
          d.requests.begin() + static_cast<std::ptrdiff_t>(end)));
      i = end;
    }
  }
}

// ---------------------------------------------------------------------------
// Comparisons against the reference run.

void expect_terminal(const std::vector<Response>& responses,
                     std::size_t submitted) {
  ASSERT_EQ(responses.size(), submitted);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const Response& r = responses[i];
    ASSERT_NE(r.status, RequestStatus::kPending) << i;
    ASSERT_GE(r.completion_cycle, r.submit_cycle) << i;
  }
}

void expect_recounted(const mem::MemoryBackend* memory,
                      const std::vector<FormedBatch>& batches,
                      const mem::TouchStats& reported) {
  mem::TouchStats recount;
  if (memory != nullptr) {
    for (const FormedBatch& b : batches) recount += memory->touch(b.nodes);
  }
  ASSERT_EQ(reported, recount);
}

/// What the accepted draws exercised, so a generator change that stops
/// reaching a feature fails instead of passing vacuously.
struct Coverage {
  int slots = 0, dyn = 0, memory = 0, migration = 0, adaptive = 0,
      faults = 0, retries = 0, outside = 0, huge_cap = 0;

  void add(const SlotDraw& d) {
    slots += 1;
    dyn += d.dyn ? 1 : 0;
    memory += d.memory ? 1 : 0;
    migration += d.options.migration.enabled() ? 1 : 0;
    adaptive += d.options.adaptive.enabled() ? 1 : 0;
    faults += d.faults && !d.faults->empty() ? 1 : 0;
    retries += d.options.retry.enabled() ? 1 : 0;
    outside += static_cast<int>(d.outside.size());
    huge_cap += d.options.batch.max_batch_nodes == kHugeCap ? 1 : 0;
  }
  void expect_reached(bool with_dyn) const {
    EXPECT_GT(slots, 0);
    EXPECT_EQ(dyn > 0, with_dyn);
    EXPECT_GT(memory, 0);
    EXPECT_GT(migration, 0);
    EXPECT_GT(adaptive, 0);
    EXPECT_GT(faults, 0);
    EXPECT_GT(retries, 0);
    EXPECT_GT(outside, 0);
    EXPECT_GT(huge_cap, 0);
  }
};

// ---------------------------------------------------------------------------
// Server.

TEST(ServeFuzz, ServerDrawsRejectOrServeIdenticallyAtEveryThreadCount) {
  Rng master(kMasterSeed);
  std::vector<int> rejected(kAllBreaks + 1, 0);
  Coverage served;
  for (int draw = 0; draw < kServerDraws; ++draw) {
    const std::uint64_t seed = master();
    SCOPED_TRACE("server draw " + std::to_string(draw) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    // Every fourth draw breaks a rule, each rule in turn.
    const Break broken =
        draw % 4 == 3 ? nth_break(static_cast<std::uint64_t>(draw / 4),
                                  kAllBreaks)
                      : Break::kNone;
    SlotDraw d = draw_slot(rng, /*dyn_allowed=*/true, broken);
    ServerOptions base;
    static_cast<SlotOptions&>(base) = d.options;
    base.tick_cycles = rng.below(7);  // 0 behaves as 1
    if (d.broken == Break::kTickPastTheHorizon) {
      base.tick_cycles = past_the_horizon(rng);
    }
    base.replicas = static_cast<std::uint32_t>(rng.below(5));

    const auto served_mapping = [&](DynState* state) -> const TreeMapping& {
      if (state != nullptr && d.dyn->serve_the_colorer) return *state->colorer;
      return *d.mapping;
    };

    if (d.broken != Break::kNone) {
      std::optional<DynState> state;
      ServerOptions opts = base;
      if (d.dyn) opts.dyn = state.emplace(*d.dyn).binding(*d.dyn);
      EXPECT_THROW(Server(served_mapping(state ? &*state : nullptr), opts),
                   std::invalid_argument)
          << "broken rule " << static_cast<int>(d.broken);
      rejected[static_cast<std::size_t>(d.broken)] += 1;
      continue;
    }

    std::optional<ServeReport> want;
    std::optional<std::vector<std::uint64_t>> want_live;
    for (const Shape shape : kShapes) {
      SCOPED_TRACE("workers " + std::to_string(shape.workers) + " pipeline " +
                   std::to_string(shape.pipeline_workers));
      std::optional<DynState> state;
      ServerOptions opts = base;
      opts.workers = shape.workers;
      opts.pipeline.workers = shape.pipeline_workers;
      if (d.dyn) opts.dyn = state.emplace(*d.dyn).binding(*d.dyn);
      Server server(served_mapping(state ? &*state : nullptr), opts);
      submit_stream(
          d, [&](const Request& r) { server.submit(r); },
          [&](std::vector<Request> rs) { server.submit(std::move(rs)); });
      const ServeReport got = server.run();

      ASSERT_NO_FATAL_FAILURE(
          expect_terminal(got.responses, d.requests.size()));
      ASSERT_NO_FATAL_FAILURE(
          expect_responses_match_lanes(got.responses, got.replicas));
      ASSERT_NO_FATAL_FAILURE(
          expect_recounted(d.memory.get(), got.batches, got.memory));
      std::vector<std::uint64_t> live;
      if (state) {
        for (const Node n : state->tree->live_nodes()) {
          live.push_back(bfs_id(n));
        }
      }
      if (!want) {
        want.emplace(got);
        want_live = live;
        continue;
      }
      ASSERT_NO_FATAL_FAILURE(
          expect_same_responses(got.responses, want->responses));
      ASSERT_NO_FATAL_FAILURE(expect_same_batches(got.batches, want->batches));
      ASSERT_NO_FATAL_FAILURE(expect_same_lanes(got.replicas, want->replicas));
      ASSERT_NO_FATAL_FAILURE(
          expect_same_mutations(got.mutations, want->mutations));
      ASSERT_NO_FATAL_FAILURE(
          expect_same_metrics_but(got.metrics, want->metrics, "pipeline"));
      ASSERT_EQ(got.memory, want->memory);
      ASSERT_EQ(got.ticks, want->ticks);
      ASSERT_EQ(got.rounds, want->rounds);
      ASSERT_EQ(got.final_cycle, want->final_cycle);
      ASSERT_EQ(live, *want_live);
    }
    served.add(d);
  }
  for (std::size_t rule = 1; rule <= kAllBreaks; ++rule) {
    EXPECT_GT(rejected[rule], 0) << "rule " << rule << " never drawn";
  }
  served.expect_reached(/*with_dyn=*/true);
}

// ---------------------------------------------------------------------------
// Forest.

TEST(ServeFuzz, ForestDrawsRejectOrServeIdenticallyAtEveryThreadCount) {
  Rng master(kMasterSeed ^ 0xF0);
  std::vector<int> rejected(kSlotBreaks + 1, 0);
  int ticks_rejected = 0;
  int weights_rejected = 0;
  std::uint64_t tenant_draws = 0;
  Coverage served;
  for (int draw = 0; draw < kForestDraws; ++draw) {
    const std::uint64_t seed = master();
    SCOPED_TRACE("forest draw " + std::to_string(draw) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    ForestOptions base;
    base.tick_cycles = rng.below(7);  // 0 behaves as 1
    base.replicas = static_cast<std::uint32_t>(rng.below(7));
    base.global_queue_bound = rng.chance(1, 2) ? 0 : rng.between(1, 48);
    base.drr_quantum_nodes = rng.below(65);  // 0 behaves as 1
    // Every eighth draw first offers its tick past the clock's horizon.
    if (draw % 8 == 7) {
      ForestOptions wrapping = base;
      wrapping.tick_cycles = past_the_horizon(rng);
      EXPECT_THROW(Forest{wrapping}, std::invalid_argument)
          << wrapping.tick_cycles;
      ticks_rejected += 1;
    }
    const std::uint64_t tenants = rng.between(1, 4);
    std::vector<SlotDraw> slots;
    std::vector<TenantOptions> options;
    for (std::uint64_t t = 0; t < tenants; ++t) {
      // Every fifth tenant breaks a rule, each rule in turn.
      const std::uint64_t k = tenant_draws++;
      const Break broken =
          k % 5 == 4 ? nth_break(k / 5, kSlotBreaks) : Break::kNone;
      SlotDraw& d = slots.emplace_back(
          draw_slot(rng, /*dyn_allowed=*/false, broken));
      TenantOptions& o = options.emplace_back();
      static_cast<SlotOptions&>(o) = d.options;
      o.rate = static_cast<double>(rng.below(5)) / 2.0;
      o.weight = rng.below(5);  // 0 behaves as 1
    }

    // Every eighth draw also offers a tenant whose DRR credit, weight *
    // quantum, does not fit 64 bits. It draws from its own Rng, so every
    // other draw stays as it was.
    if (draw % 8 == 3) {
      Rng heavy(seed ^ 0xD88);
      ForestOptions metered = base;
      metered.drr_quantum_nodes = heavy.between(2, 64);
      TenantOptions o;
      o.weight = heavy.between(
          ~std::uint64_t{0} / metered.drr_quantum_nodes + 1, ~std::uint64_t{0});
      Forest forest(metered);
      const ModuloMapping mapping(CompleteBinaryTree(3), 2);
      EXPECT_THROW((void)forest.add_tenant(mapping, o), std::invalid_argument)
          << "weight " << o.weight << " quantum "
          << metered.drr_quantum_nodes;
      EXPECT_EQ(forest.tenant_count(), 0u);
      weights_rejected += 1;
    }

    // The check: a broken tenant is refused and leaves the forest as it
    // was; the rest register in order.
    std::vector<std::size_t> accepted;
    {
      Forest forest(base);
      for (std::size_t t = 0; t < slots.size(); ++t) {
        if (slots[t].broken != Break::kNone) {
          EXPECT_THROW((void)forest.add_tenant(*slots[t].mapping, options[t]),
                       std::invalid_argument)
              << "tenant " << t << " broken rule "
              << static_cast<int>(slots[t].broken);
          rejected[static_cast<std::size_t>(slots[t].broken)] += 1;
        } else {
          ASSERT_EQ(forest.add_tenant(*slots[t].mapping, options[t]),
                    accepted.size());
          accepted.push_back(t);
        }
      }
      ASSERT_EQ(forest.tenant_count(), accepted.size());
    }

    std::optional<ForestReport> want;
    for (const Shape shape : kShapes) {
      SCOPED_TRACE("workers " + std::to_string(shape.workers) + " pipeline " +
                   std::to_string(shape.pipeline_workers));
      ForestOptions fopts = base;
      fopts.workers = shape.workers;
      fopts.pipeline.workers = shape.pipeline_workers;
      Forest forest(fopts);
      for (const std::size_t t : accepted) {
        (void)forest.add_tenant(*slots[t].mapping, options[t]);
      }
      for (std::uint32_t id = 0; id < accepted.size(); ++id) {
        submit_stream(
            slots[accepted[id]],
            [&](const Request& r) { forest.submit(id, r); },
            [&](std::vector<Request> rs) { forest.submit(id, std::move(rs)); });
      }
      const ForestReport got = forest.run();

      ASSERT_EQ(got.tenants.size(), accepted.size());
      for (std::size_t id = 0; id < accepted.size(); ++id) {
        const SlotDraw& d = slots[accepted[id]];
        ASSERT_NO_FATAL_FAILURE(
            expect_terminal(got.tenants[id].responses, d.requests.size()));
        ASSERT_NO_FATAL_FAILURE(expect_responses_match_lanes(
            got.tenants[id].responses, got.tenants[id].lanes));
        ASSERT_NO_FATAL_FAILURE(expect_recounted(
            d.memory.get(), got.tenants[id].batches, got.tenants[id].memory));
      }
      if (!want) {
        want.emplace(got);
        continue;
      }
      for (std::size_t id = 0; id < accepted.size(); ++id) {
        SCOPED_TRACE("tenant " + std::to_string(id));
        const TenantReport& a = got.tenants[id];
        const TenantReport& b = want->tenants[id];
        ASSERT_NO_FATAL_FAILURE(
            expect_same_responses(a.responses, b.responses));
        ASSERT_NO_FATAL_FAILURE(expect_same_batches(a.batches, b.batches));
        ASSERT_NO_FATAL_FAILURE(expect_same_lanes(a.lanes, b.lanes));
        ASSERT_NO_FATAL_FAILURE(
            expect_same_metrics_but(a.metrics, b.metrics, "pipeline"));
        ASSERT_EQ(a.memory, b.memory);
        ASSERT_EQ(a.served_nodes, b.served_nodes);
      }
      ASSERT_EQ(got.ticks, want->ticks);
      ASSERT_EQ(got.rounds, want->rounds);
      ASSERT_EQ(got.final_cycle, want->final_cycle);
    }
    for (const std::size_t t : accepted) served.add(slots[t]);
  }
  for (std::size_t rule = 1; rule <= kSlotBreaks; ++rule) {
    EXPECT_GT(rejected[rule], 0) << "rule " << rule << " never drawn";
  }
  EXPECT_GT(ticks_rejected, 0);
  EXPECT_GT(weights_rejected, 0);
  served.expect_reached(/*with_dyn=*/false);
}

}  // namespace
}  // namespace pmtree::serve
