// Read-write serving differential (DESIGN.md §16): mixed read/write
// traffic against a DynamicTree + IncrementalColorer must produce
// bit-identical responses, mutation logs and final tree/color state at
// 1/2/8 workers and at pipeline workers, with or without real-memory
// arenas over the colorer, the final colors must equal a from-scratch
// mapping, and write-write conflicts must resolve to the
// canonically-first writer, deterministically.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/dyn/incremental.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree::serve {
namespace {

constexpr std::uint32_t kLevels = 8;
constexpr std::uint32_t kN = 5;
constexpr std::uint32_t kK = 2;

struct Config {
  ServerOptions options;  ///< dyn binding filled per run
  std::vector<Request> requests;
  bool label_scheme = false;
};

Config random_config(std::uint64_t seed) {
  Rng rng(seed);
  Config cfg;
  cfg.label_scheme = rng.chance(1, 3);
  cfg.options.tick_cycles = rng.between(1, 5);
  cfg.options.replicas = static_cast<std::uint32_t>(rng.between(1, 3));
  cfg.options.admission.queue_bound = rng.between(4, 32);
  cfg.options.batch.max_batch_nodes = rng.between(4, 48);
  cfg.options.batch.max_wait_cycles = rng.between(0, 10);

  const std::size_t count = rng.between(40, 160);
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> next_seq(4, 0);
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(4);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(4));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    const std::uint64_t dice = rng.below(100);
    // Write targets are biased to shallow levels so parents are often
    // live and a healthy share of mutations actually applies; the rest
    // exercise the rejection verdicts.
    if (dice < 25) {
      r.kind = RequestKind::kInsert;
      const auto level = static_cast<std::uint32_t>(rng.between(1, 5));
      r.target = Node{level, rng.below(pow2(level))};
      r.payload = static_cast<std::int64_t>(rng.below(1000));
      Node cur = r.target;
      while (true) {
        r.nodes.push_back(cur);
        if (cur.level == 0) break;
        cur = parent(cur);
      }
    } else if (dice < 40) {
      r.kind = RequestKind::kErase;
      const auto level = static_cast<std::uint32_t>(rng.between(1, 5));
      r.target = Node{level, rng.below(pow2(level))};
      r.nodes.push_back(r.target);
    } else {
      const std::size_t nodes = rng.between(1, 5);
      for (std::size_t t = 0; t < nodes; ++t) {
        const auto level = static_cast<std::uint32_t>(rng.below(kLevels));
        r.nodes.push_back(Node{level, rng.below(pow2(level))});
      }
    }
    cfg.requests.push_back(std::move(r));
  }
  return cfg;
}

struct RunResult {
  ServeReport report;
  std::vector<Node> live;        ///< final live set
  std::vector<Color> live_colors;
  std::uint64_t tree_version = 0;
  std::uint32_t levels = 0;      ///< final tree height
  /// With arenas: what the report's batches should have read, from the
  /// batch node counts and the analytic per-node checksums.
  std::uint64_t expected_mem_nodes = 0;
  std::uint64_t expected_checksum = 0;
};

/// Fresh tree + colorer per run: every leg replays the same traffic from
/// the same root-only initial state. With `arenas`, a MemoryBackend built
/// over the colorer observes every batch.
RunResult run_config(const Config& cfg, unsigned workers,
                     unsigned pipeline_workers, bool arenas = false) {
  const CompleteBinaryTree envelope(kLevels);
  dyn::DynamicTree tree(kLevels);
  dyn::IncrementalColorer colorer =
      cfg.label_scheme ? dyn::IncrementalColorer::label_tree(envelope, 7)
                       : dyn::IncrementalColorer::color(envelope, kN, kK);
  ServerOptions opts = cfg.options;
  opts.workers = workers;
  opts.pipeline.workers = pipeline_workers;
  opts.dyn.tree = &tree;
  opts.dyn.colorer = &colorer;
  std::optional<mem::MemoryBackend> memory;
  if (arenas) {
    memory.emplace(colorer);
    opts.memory = &*memory;
  }
  Server server(colorer, opts);
  for (const Request& r : cfg.requests) server.submit(r);
  RunResult res;
  res.report = server.run();
  if (memory) {
    for (const FormedBatch& b : res.report.batches) {
      res.expected_mem_nodes += b.nodes.size();
      for (const Node n : b.nodes) {
        res.expected_checksum += memory->expected_node_checksum(n);
      }
    }
  }
  res.live = tree.live_nodes();
  res.live_colors.resize(res.live.size());
  colorer.color_of_batch(std::span<const Node>(res.live.data(),
                                               res.live.size()),
                         std::span<Color>(res.live_colors.data(),
                                          res.live_colors.size()));
  res.tree_version = tree.version();
  res.levels = tree.levels();
  EXPECT_TRUE(tree.validate());
  return res;
}

void expect_same_responses(const ServeReport& got, const ServeReport& want) {
  ASSERT_EQ(got.responses.size(), want.responses.size());
  for (std::size_t i = 0; i < got.responses.size(); ++i) {
    const Response& a = got.responses[i];
    const Response& b = want.responses[i];
    ASSERT_EQ(a.client, b.client) << i;
    ASSERT_EQ(a.seq, b.seq) << i;
    ASSERT_EQ(a.status, b.status) << i;
    ASSERT_EQ(a.admitted_cycle, b.admitted_cycle) << i;
    ASSERT_EQ(a.dispatch_cycle, b.dispatch_cycle) << i;
    ASSERT_EQ(a.completion_cycle, b.completion_cycle) << i;
    ASSERT_EQ(a.batch, b.batch) << i;
  }
}

void expect_same_mutations(const std::vector<MutationRecord>& got,
                           const std::vector<MutationRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].batch, want[i].batch) << i;
    ASSERT_EQ(got[i].client, want[i].client) << i;
    ASSERT_EQ(got[i].seq, want[i].seq) << i;
    ASSERT_EQ(got[i].kind, want[i].kind) << i;
    ASSERT_EQ(got[i].target, want[i].target) << i;
    ASSERT_EQ(got[i].payload, want[i].payload) << i;
    ASSERT_EQ(got[i].status, want[i].status) << i;
    ASSERT_EQ(got[i].applied_cycle, want[i].applied_cycle) << i;
  }
}

void expect_same_final_state(const RunResult& got, const RunResult& want) {
  ASSERT_EQ(got.live, want.live);
  ASSERT_EQ(got.live_colors, want.live_colors);
  ASSERT_EQ(got.tree_version, want.tree_version);
}

TEST(DynServe, MixedTrafficIsWorkerCountInvariant) {
  std::uint64_t total_applied = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Config cfg = random_config(seed * 7919);
    const RunResult oracle = run_config(cfg, 1, 0);

    ASSERT_EQ(oracle.report.count(RequestStatus::kOk) +
                  oracle.report.count(RequestStatus::kShed) +
                  oracle.report.count(RequestStatus::kExpired),
              cfg.requests.size());
    for (const MutationRecord& rec : oracle.report.mutations) {
      if (rec.status == dyn::DynStatus::kOk) total_applied += 1;
    }

    for (const unsigned workers : {2u, 8u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      const RunResult got = run_config(cfg, workers, 0);
      expect_same_responses(got.report, oracle.report);
      expect_same_mutations(got.report.mutations, oracle.report.mutations);
      expect_same_final_state(got, oracle);
      // The oracle path's full JSON (metrics included) is byte-identical.
      ASSERT_EQ(got.report.to_json().dump(), oracle.report.to_json().dump());
    }
  }
  // The workload actually wrote — otherwise the suite re-checks reads.
  EXPECT_GT(total_applied, 0u);
}

TEST(DynServe, StagedPipelineMatchesOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Config cfg = random_config(seed * 104729);
    const RunResult oracle = run_config(cfg, 1, 0);
    for (const unsigned pipeline_workers : {1u, 2u, 4u}) {
      SCOPED_TRACE("pipeline=" + std::to_string(pipeline_workers));
      const RunResult got = run_config(cfg, 1, pipeline_workers);
      expect_same_responses(got.report, oracle.report);
      expect_same_mutations(got.report.mutations, oracle.report.mutations);
      expect_same_final_state(got, oracle);
    }
  }
}

TEST(DynServe, ArenasOverTheColorerAreObservationOnly) {
  // The colorer's tree() is its whole envelope, so a backend built over
  // it holds a payload for every node the tree can grow into, and reads
  // of nodes inserted mid-run stay inside the arenas.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Config cfg = random_config(seed * 6700417);
    const RunResult oracle = run_config(cfg, 1, 0);
    EXPECT_EQ(oracle.report.memory, mem::TouchStats{});
    for (const unsigned pipeline_workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("pipeline=" + std::to_string(pipeline_workers));
      const RunResult got = run_config(cfg, 1, pipeline_workers, true);
      expect_same_responses(got.report, oracle.report);
      expect_same_mutations(got.report.mutations, oracle.report.mutations);
      expect_same_final_state(got, oracle);
      EXPECT_GT(got.report.memory.nodes, 0u);
      EXPECT_EQ(got.report.memory.nodes, got.expected_mem_nodes);
      EXPECT_EQ(got.report.memory.checksum, got.expected_checksum);
    }
  }
}

TEST(DynServe, FinalColorsMatchFromScratchMappings) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Config cfg = random_config(seed * 2654435761u);
    const RunResult res = run_config(cfg, 2, 0);
    // Rebuilt over the final height. The live colors came from the
    // colorer's batch kernel; COLOR's scalar chase and LABEL-TREE's
    // recursive retrieval check them by other code paths.
    const CompleteBinaryTree shape(res.levels);
    std::unique_ptr<TreeMapping> rebuild;
    if (cfg.label_scheme) {
      rebuild = std::make_unique<LabelTreeMapping>(
          shape, 7, LabelTreeMapping::Retrieval::kRecursive);
    } else {
      rebuild = std::make_unique<ColorMapping>(shape, kN, kK);
    }
    for (std::size_t i = 0; i < res.live.size(); ++i) {
      ASSERT_EQ(res.live_colors[i], rebuild->color_of(res.live[i]))
          << "node (" << res.live[i].level << ", " << res.live[i].index << ")";
    }
  }
}

TEST(DynServe, ConflictingWritersResolveToCanonicalFirst) {
  // Two clients race an insert of the same coordinate in the same cycle;
  // a third erases it immediately after. Canonical order (submit, client,
  // seq) decides every verdict.
  const CompleteBinaryTree envelope(kLevels);
  dyn::DynamicTree tree(kLevels);
  dyn::IncrementalColorer colorer =
      dyn::IncrementalColorer::color(envelope, kN, kK);
  ServerOptions opts;
  opts.tick_cycles = 2;
  opts.batch.max_batch_nodes = 16;
  opts.dyn.tree = &tree;
  opts.dyn.colorer = &colorer;
  Server server(colorer, opts);

  const Node target{1, 0};
  for (std::uint32_t client = 0; client < 2; ++client) {
    Request r;
    r.client = client;
    r.seq = 0;
    r.submit_cycle = 0;
    r.kind = RequestKind::kInsert;
    r.target = target;
    r.payload = 100 + client;
    r.nodes = {Node{0, 0}, target};
    server.submit(std::move(r));
  }
  Request erase;
  erase.client = 2;
  erase.seq = 0;
  erase.submit_cycle = 10;
  erase.kind = RequestKind::kErase;
  erase.target = target;
  erase.nodes = {target};
  server.submit(std::move(erase));

  const ServeReport report = server.run();
  ASSERT_EQ(report.mutations.size(), 3u);
  // Client 0 is canonically first: its insert wins.
  EXPECT_EQ(report.mutations[0].client, 0u);
  EXPECT_EQ(report.mutations[0].status, dyn::DynStatus::kOk);
  // Client 1's identical (kind, target) in the same batch is deduped; in
  // a later batch it would be kOccupied — both verdicts are losses.
  EXPECT_TRUE(report.mutations[1].status == dyn::DynStatus::kDuplicate ||
              report.mutations[1].status == dyn::DynStatus::kOccupied);
  // The erase lands after both inserts and succeeds.
  EXPECT_EQ(report.mutations[2].kind, RequestKind::kErase);
  EXPECT_EQ(report.mutations[2].status, dyn::DynStatus::kOk);
  EXPECT_FALSE(tree.is_live(target));
  EXPECT_EQ(tree.size(), 1u);
}

/// A write request whose node set is its own target.
Request write(std::uint32_t client, std::uint64_t seq, std::uint64_t cycle,
              RequestKind kind, Node target) {
  Request r;
  r.client = client;
  r.seq = seq;
  r.submit_cycle = cycle;
  r.kind = kind;
  r.target = target;
  r.nodes = {target};
  return r;
}

std::uint64_t tree_version_of(const ServeReport& report) {
  const Json* dyn = report.metrics.find("dyn");
  EXPECT_NE(dyn, nullptr);
  return dyn == nullptr ? 0 : dyn->find("tree_version")->as_uint();
}

TEST(DynServe, TreeStateCarriesAcrossRuns) {
  // One Server, two run() calls on one bound tree: run 2 mutates the
  // shape run 1 left, its log holds only its own writers, and the tree
  // version continues from run 1's.
  const CompleteBinaryTree envelope(kLevels);
  dyn::DynamicTree tree(kLevels);
  dyn::IncrementalColorer colorer =
      dyn::IncrementalColorer::color(envelope, kN, kK);
  ServerOptions opts;
  opts.tick_cycles = 2;
  opts.batch.max_batch_nodes = 16;
  opts.dyn.tree = &tree;
  opts.dyn.colorer = &colorer;
  Server server(colorer, opts);

  server.submit(write(0, 0, 0, RequestKind::kInsert, Node{1, 0}));
  server.submit(write(0, 1, 4, RequestKind::kInsert, Node{2, 1}));
  server.submit(write(1, 0, 8, RequestKind::kInsert, Node{1, 1}));
  server.submit(write(1, 1, 12, RequestKind::kErase, Node{1, 1}));
  const ServeReport first = server.run();
  ASSERT_EQ(first.mutations.size(), 4u);
  for (const MutationRecord& rec : first.mutations) {
    EXPECT_EQ(rec.status, dyn::DynStatus::kOk);
  }
  const std::uint64_t version = tree_version_of(first);
  EXPECT_EQ(version, tree.version());

  // (3, 2) hangs under run 1's (2, 1); (1, 1) was erased in run 1.
  server.submit(write(2, 0, 0, RequestKind::kInsert, Node{3, 2}));
  server.submit(write(2, 1, 4, RequestKind::kErase, Node{1, 1}));
  const ServeReport second = server.run();
  ASSERT_EQ(second.mutations.size(), 2u);
  for (const MutationRecord& rec : second.mutations) {
    EXPECT_EQ(rec.client, 2u);
  }
  EXPECT_EQ(second.mutations[0].target, (Node{3, 2}));
  EXPECT_EQ(second.mutations[0].status, dyn::DynStatus::kOk);
  EXPECT_EQ(second.mutations[1].status, dyn::DynStatus::kNotLive);
  EXPECT_EQ(tree_version_of(second), version + 1);
  EXPECT_EQ(tree.live_nodes(),
            (std::vector<Node>{{0, 0}, {1, 0}, {2, 1}, {3, 2}}));
  EXPECT_TRUE(tree.validate());
}

// A keyed store over the live tree (the dictionary protocol): a key rides
// its insert as the payload, a client places it at the BST attach node of
// its key view, and every client rebuilds that view from the barrier's
// mutation log.
using KeyView = std::vector<std::pair<Node, std::int64_t>>;

std::optional<std::int64_t> key_at(const KeyView& view, Node n) {
  for (const auto& [node, key] : view) {
    if (node == n) return key;
  }
  return std::nullopt;
}

/// The node holding `key`, or the unkeyed node its BST walk ends on.
Node bst_slot(const KeyView& view, std::int64_t key) {
  Node cur{0, 0};
  while (true) {
    const std::optional<std::int64_t> k = key_at(view, cur);
    if (!k || *k == key) return cur;
    cur = key < *k ? left_child(cur) : right_child(cur);
  }
}

/// `view` plus every applied insert in `report`'s log, any client's.
KeyView harvest(KeyView view, const ServeReport& report) {
  for (const MutationRecord& rec : report.mutations) {
    if (rec.kind == RequestKind::kInsert &&
        rec.status == dyn::DynStatus::kOk) {
      view.emplace_back(rec.target, rec.payload);
    }
  }
  return view;
}

TEST(DynamicDictionary, RacingClientsConvergeAndLosersAreReported) {
  // Two clients plan the same key from the same view, so both target the
  // same attach node: exactly one insert applies, the other's verdict is
  // a loss in the log, and both converge on one view by harvesting it.
  const CompleteBinaryTree envelope(kLevels);
  dyn::DynamicTree tree(kLevels);
  dyn::IncrementalColorer colorer =
      dyn::IncrementalColorer::color(envelope, kN, kK);
  ServerOptions opts;
  opts.tick_cycles = 2;
  opts.batch.max_batch_nodes = 24;
  opts.dyn.tree = &tree;
  opts.dyn.colorer = &colorer;
  Server server(colorer, opts);

  const KeyView initial{{Node{0, 0}, 500}};
  constexpr std::int64_t kKey = 777;
  for (std::uint32_t client = 0; client < 2; ++client) {
    const Node attach = bst_slot(initial, kKey);
    ASSERT_EQ(attach, (Node{1, 1}));
    Request r = write(client, 0, 0, RequestKind::kInsert, attach);
    r.payload = kKey;
    r.nodes = {Node{0, 0}, attach};
    server.submit(std::move(r));
  }
  const ServeReport report = server.run();

  ASSERT_EQ(report.responses.size(), 2u);
  for (const Response& resp : report.responses) {
    EXPECT_EQ(resp.status, RequestStatus::kOk);
  }
  ASSERT_EQ(report.mutations.size(), 2u);
  // The canonically-first writer wins; the loser's verdict is in the log
  // under its own (client, seq).
  EXPECT_EQ(report.mutations[0].client, 0u);
  EXPECT_EQ(report.mutations[0].seq, 0u);
  EXPECT_EQ(report.mutations[0].status, dyn::DynStatus::kOk);
  EXPECT_EQ(report.mutations[1].client, 1u);
  EXPECT_EQ(report.mutations[1].seq, 0u);
  EXPECT_TRUE(report.mutations[1].status == dyn::DynStatus::kDuplicate ||
              report.mutations[1].status == dyn::DynStatus::kOccupied);

  // Every client harvests the same log, so one harvest is each client's
  // view: the key is stored once and a walk for it finds it.
  const KeyView converged = harvest(initial, report);
  ASSERT_EQ(converged.size(), 2u);
  const Node found = bst_slot(converged, kKey);
  EXPECT_EQ(found, (Node{1, 1}));
  EXPECT_EQ(key_at(converged, found), kKey);
  EXPECT_TRUE(tree.is_live(found));
  EXPECT_EQ(tree.size(), 2u);
}

// A dyn binding composes with neither epoch controller, and needs its
// colorer: each is rejected when the Server is built, in every build type.

TEST(DynServe, RejectsTreeWithoutColorer) {
  const CompleteBinaryTree envelope(kLevels);
  dyn::DynamicTree tree(kLevels);
  const ColorMapping mapping(envelope, kN, kK);
  ServerOptions opts;
  opts.dyn.tree = &tree;
  EXPECT_THROW(Server(mapping, opts), std::invalid_argument);
}

TEST(DynServe, RejectsSkewMigration) {
  const CompleteBinaryTree envelope(kLevels);
  dyn::DynamicTree tree(kLevels);
  dyn::IncrementalColorer colorer =
      dyn::IncrementalColorer::color(envelope, kN, kK);
  ServerOptions opts;
  opts.dyn.tree = &tree;
  opts.dyn.colorer = &colorer;
  opts.migration.epoch_batches = 4;
  opts.migration.top_k = 4;
  ASSERT_TRUE(opts.migration.enabled());
  EXPECT_THROW(Server(colorer, opts), std::invalid_argument);
}

TEST(DynServe, RejectsAdaptiveSelection) {
  const CompleteBinaryTree envelope(kLevels);
  dyn::DynamicTree tree(kLevels);
  dyn::IncrementalColorer colorer =
      dyn::IncrementalColorer::color(envelope, kN, kK);
  ServerOptions opts;
  opts.dyn.tree = &tree;
  opts.dyn.colorer = &colorer;
  opts.adaptive.epoch_batches = 4;
  opts.adaptive.candidates = {&colorer};
  ASSERT_TRUE(opts.adaptive.enabled());
  EXPECT_THROW(Server(colorer, opts), std::invalid_argument);
}

TEST(DynServe, WithoutBindingWritesBehaveAsReads) {
  // The same traffic against a plain static server: no barrier, no log,
  // and the kind/target fields are inert.
  const Config cfg = random_config(31337);
  const CompleteBinaryTree envelope(kLevels);
  const ColorMapping mapping(envelope, kN, kK);
  ServerOptions opts = cfg.options;
  Server server(mapping, opts);
  for (const Request& r : cfg.requests) server.submit(r);
  const ServeReport report = server.run();
  EXPECT_TRUE(report.mutations.empty());
  EXPECT_EQ(report.count(RequestStatus::kOk) +
                report.count(RequestStatus::kShed) +
                report.count(RequestStatus::kExpired),
            cfg.requests.size());
}

}  // namespace
}  // namespace pmtree::serve
