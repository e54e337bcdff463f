// E25 — real-memory module arenas (DESIGN.md §17): genuine bytes moved
// per placement mapping, the cost of observing them, and the adaptive
// selector converging to the better mapping on workloads where COLOR and
// LABEL-TREE rank differently (the paper's R10 trade-off re-measured on
// real memory instead of simulated conflict counters).
//
// Three placements of the same tree — COLOR, LABEL-TREE, and the modulo
// strawman — each get their own MemoryBackend (one 64-byte-aligned slab
// per module, module-major BFS placement, 64-byte node payloads). The
// serve loop runs the same request stream against each and the backend
// loads every lane of every cut batch's payloads, so "bytes touched" is
// a measured quantity with a checksum the arenas must reproduce, not an
// accounting estimate.
//
// Measured questions:
//   * per mapping: wall time with the backend off vs on (warmed
//     median-of-N), nodes/bytes actually touched, and the raw touch
//     bandwidth of replaying the run's batch sets against the arenas.
//   * adaptive selection: on a stream hot under LABEL-TREE the selector
//     must settle on COLOR, and vice versa — two workloads, opposite
//     winners, decided from measured per-epoch conflict profiles.
//
// The exit-code gate covers ONLY deterministic invariants: responses
// bit-identical with the backend on or off at 1/2/8 workers and at
// pipeline workers (touches are observation, never feedback); the
// 1-thread run's TouchStats equal to the pipelined run's multi-thread
// totals and to a recount over the report's own batches; the checksum
// equal to the analytic fill expectation; and the selector's convergence
// to each workload's winner. Wall clocks and bandwidth are printed and
// recorded in BENCH_E25_realmem.json but never gate the exit code, so
// the perf-smoke ctest entry cannot flake under scheduler noise.
// PMTREE_E25_SMOKE=1 shrinks every dimension.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/json.hpp"
#include "pmtree/util/rng.hpp"

namespace {

using namespace pmtree;
using namespace pmtree::serve;

bool smoke_mode() { return bench::smoke_mode("PMTREE_E25_SMOKE"); }

std::uint32_t tree_levels() {
  return bench::serve_bench_dims(smoke_mode()).tree_levels;
}
std::uint32_t module_count() {
  // 15 / 31 are exact 2^m - 1 instantiations, so COLOR, LABEL-TREE and
  // the modulo strawman all use the same module count (the adaptive
  // candidate contract) with no §5 rounding.
  return bench::serve_bench_dims(smoke_mode()).modules;
}
std::size_t request_count() {
  return bench::serve_bench_dims(smoke_mode()).requests;
}
int reps() { return bench::serve_bench_dims(smoke_mode()).reps; }

/// E19's mixed stream: 80% three-node scans inside one leaf span, 20%
/// scattered two-node probes — enough module pressure to keep every
/// placement busy without saturating any.
std::vector<Request> request_stream(std::uint32_t levels, std::size_t count,
                                    std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t bottom = levels - 1;
  std::vector<Request> requests;
  requests.reserve(count);
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> next_seq(16, 0);
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(3);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(16));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    if (rng.below(10) < 8) {
      const std::uint64_t span = pow2(bottom) / 8;
      const std::uint64_t start = rng.below(span);
      for (std::uint64_t k = 0; k < 3; ++k) {
        r.nodes.push_back(v((start + k) % span, bottom));
      }
    } else {
      for (int k = 0; k < 2; ++k) {
        const std::uint32_t level =
            static_cast<std::uint32_t>(rng.below(levels));
        r.nodes.push_back(v(rng.below(pow2(level)), level));
      }
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

/// Bottom-level nodes that all share one color under `by` — monochrome
/// for `by`, typically well spread under any mapping that disagrees with
/// it. The adversarial hot set behind both adaptive workloads.
std::vector<Node> monochrome_under(const TreeMapping& by) {
  const std::uint32_t bottom = by.tree().levels() - 1;
  const Color target = by.color_of(v(0, bottom));
  std::vector<Node> out;
  for (std::uint64_t i = 0; i < pow2(bottom); ++i) {
    if (by.color_of(v(i, bottom)) == target) out.push_back(v(i, bottom));
  }
  return out;
}

/// 80% of requests read 3 nodes of the monochrome-under-`hot_by` set, the
/// rest scatter — the server whose mapping equals `hot_by` is the loser.
std::vector<Request> adaptive_requests(const TreeMapping& hot_by,
                                       std::size_t count,
                                       std::uint64_t seed) {
  const std::vector<Node> hot = monochrome_under(hot_by);
  const std::uint32_t levels = hot_by.tree().levels();
  Rng rng(seed);
  std::vector<Request> requests;
  requests.reserve(count);
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> next_seq(16, 0);
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(3);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(16));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    if (rng.below(10) < 8) {
      const std::size_t start = rng.below(hot.size());
      for (std::size_t k = 0; k < 3; ++k) {
        r.nodes.push_back(hot[(start + k * 7) % hot.size()]);
      }
    } else {
      for (int k = 0; k < 2; ++k) {
        const std::uint32_t level =
            static_cast<std::uint32_t>(rng.below(levels));
        r.nodes.push_back(v(rng.below(pow2(level)), level));
      }
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

ServerOptions serve_options(const mem::MemoryBackend* memory,
                            unsigned workers = 1,
                            unsigned pipeline_workers = 0) {
  ServerOptions opts;
  opts.tick_cycles = 4;
  opts.replicas = 2;
  opts.workers = workers;
  opts.admission.queue_bound = 128;
  opts.admission.overflow = OverflowPolicy::kShed;
  opts.batch.max_batch_nodes = 96;
  opts.batch.max_wait_cycles = 8;
  opts.pipeline.workers = pipeline_workers;
  opts.memory = memory;
  return opts;
}

struct RunOutcome {
  ServeReport report;
  double wall_seconds = 0;
};

/// Warmed median-of-N wall time of run() only; the server is constructed
/// once and reused like a long-lived process (E19/E23 convention).
RunOutcome run_server(const TreeMapping& mapping, const ServerOptions& opts,
                      const std::vector<Request>& requests, int repeat) {
  RunOutcome outcome;
  Server server(mapping, opts);
  outcome.wall_seconds = bench::median_wall_seconds(
      /*warmup=*/1, repeat,
      [&] {
        for (const Request& r : requests) server.submit(r);
        outcome.report = ServeReport{};
      },
      [&] { outcome.report = server.run(); });
  return outcome;
}

/// Response/batch/metric bit-identity. The "pipeline" metric section is
/// wall-time stage attribution; "memory" is skipped only when comparing a
/// backend-on run against a backend-off oracle (the touch section is the
/// one intended difference).
bool same_responses(const ServeReport& got, const ServeReport& oracle,
                    bool skip_memory) {
  if (got.responses.size() != oracle.responses.size()) return false;
  for (std::size_t i = 0; i < got.responses.size(); ++i) {
    const Response& x = got.responses[i];
    const Response& y = oracle.responses[i];
    if (x.client != y.client || x.seq != y.seq || x.status != y.status ||
        x.completion_cycle != y.completion_cycle || x.batch != y.batch ||
        x.dispatch_cycle != y.dispatch_cycle || x.retries != y.retries) {
      return false;
    }
  }
  if (got.batches.size() != oracle.batches.size()) return false;
  if (got.final_cycle != oracle.final_cycle) return false;
  for (const auto& [key, value] : oracle.metrics.members()) {
    if (key == "pipeline") continue;  // wall-time stage attribution
    if (skip_memory && key == "memory") continue;
    const Json* other = got.metrics.find(key);
    if (other == nullptr || other->dump() != value.dump()) return false;
  }
  return true;
}

bool warn_unless(bool ok, const char* what) {
  if (!ok) std::cout << "MISMATCH: " << what << "\n";
  return ok;
}

mem::TouchStats recount(const mem::MemoryBackend& memory,
                        const std::vector<FormedBatch>& batches) {
  mem::TouchStats total;
  for (const FormedBatch& b : batches) total += memory.touch(b.nodes);
  return total;
}

/// The checksum the arenas MUST reproduce, computed from the fill
/// generator alone — never by reading the slabs.
std::uint64_t analytic_checksum(const mem::MemoryBackend& memory,
                                const std::vector<FormedBatch>& batches) {
  std::uint64_t sum = 0;
  for (const FormedBatch& b : batches) {
    for (const Node n : b.nodes) sum += memory.expected_node_checksum(n);
  }
  return sum;
}

/// Raw arena bandwidth: replay the run's cut batch sets straight against
/// touch(), no serve loop in the way.
double touch_gib_per_sec(const mem::MemoryBackend& memory,
                         const std::vector<FormedBatch>& batches,
                         int repeat) {
  std::uint64_t bytes = 0;
  for (const FormedBatch& b : batches) {
    bytes += b.nodes.size() * memory.stride_bytes();
  }
  std::uint64_t sink = 0;
  const double wall = bench::median_wall_seconds(
      /*warmup=*/1, repeat, [&] { sink = 0; },
      [&] {
        for (const FormedBatch& b : batches) {
          sink += memory.touch(b.nodes).checksum;
        }
        benchmark::DoNotOptimize(sink);
      });
  return wall > 0 ? static_cast<double>(bytes) / wall / (1u << 30) : 0;
}

struct AdaptiveCase {
  const char* workload;           ///< what the hot set is monochrome under
  const TreeMapping* base;        ///< serves until the first decision
  const TreeMapping* winner;      ///< must be the selector's final pick
  std::uint64_t seed;
};

void run_experiment() {
  const CompleteBinaryTree tree(tree_levels());
  const ColorMapping color = make_optimal_color_mapping(tree, module_count());
  const LabelTreeMapping label(tree, color.num_modules());
  const ModuloMapping modulo(tree, color.num_modules());
  const std::vector<Request> requests =
      request_stream(tree.levels(), request_count(), 0xE25);

  // ---- Headline: bytes moved and the cost of moving them, per mapping.
  struct MappingRow {
    const TreeMapping* mapping;
    RunOutcome off, on;
    mem::TouchStats touched;
    double gibps = 0;
  };
  std::vector<MappingRow> rows;
  std::deque<mem::MemoryBackend> backends;
  for (const TreeMapping* m : {static_cast<const TreeMapping*>(&color),
                               static_cast<const TreeMapping*>(&label),
                               static_cast<const TreeMapping*>(&modulo)}) {
    const mem::MemoryBackend& backend = backends.emplace_back(*m);
    MappingRow row;
    row.mapping = m;
    row.off = run_server(*m, serve_options(nullptr), requests, reps());
    row.on = run_server(*m, serve_options(&backend), requests, reps());
    row.touched = row.on.report.memory;
    row.gibps = touch_gib_per_sec(backend, row.on.report.batches, reps());
    rows.push_back(std::move(row));
  }

  TableWriter table({"mapping", "wall off s", "wall on s", "overhead %",
                     "nodes touched", "MiB touched", "touch GiB/s"});
  for (const MappingRow& row : rows) {
    const double overhead =
        row.off.wall_seconds > 0
            ? (row.on.wall_seconds / row.off.wall_seconds - 1.0) * 100.0
            : 0;
    table.row(row.mapping->name(), row.off.wall_seconds, row.on.wall_seconds,
              overhead, row.touched.nodes,
              static_cast<double>(row.touched.bytes) / (1u << 20),
              row.gibps);
  }
  bench::print_experiment(
      "E25 (real-memory arenas: measured traffic per placement)",
      std::to_string(request_count()) + " requests, height-" +
          std::to_string(tree.levels() - 1) + " tree, M=" +
          std::to_string(color.num_modules()) + ", 64 B payloads (" +
          std::to_string(backends.front().resident_bytes() >> 20) +
          " MiB resident per backend)",
      table);

  // ---- Differential gate on the COLOR run. ---------------------------
  const mem::MemoryBackend& cbackend = backends.front();
  const RunOutcome& con = rows.front().on;
  const RunOutcome& coff = rows.front().off;
  const RunOutcome w2 =
      run_server(color, serve_options(&cbackend, 2), requests, reps());
  const RunOutcome w8 =
      run_server(color, serve_options(&cbackend, 8), requests, reps());
  const RunOutcome p1 =
      run_server(color, serve_options(&cbackend, 1, 1), requests, reps());
  const RunOutcome p2 =
      run_server(color, serve_options(&cbackend, 1, 2), requests, reps());

  const bool id_onoff = warn_unless(
      same_responses(con.report, coff.report, /*skip_memory=*/true),
      "backend on == off (1 worker)");
  const bool id_w2 = warn_unless(
      same_responses(w2.report, con.report, false), "2 workers");
  const bool id_w8 = warn_unless(
      same_responses(w8.report, con.report, false), "8 workers");
  const bool id_p1 = warn_unless(
      same_responses(p1.report, con.report, false), "pipeline 1w");
  const bool id_p2 = warn_unless(
      same_responses(p2.report, con.report, false), "pipeline 2w");
  const bool touch_pipeline = warn_unless(
      p1.report.memory == con.report.memory &&
          p2.report.memory == con.report.memory &&
          w8.report.memory == con.report.memory,
      "pipeline/worker TouchStats == oracle TouchStats");
  const bool touch_recount = warn_unless(
      con.report.memory == recount(cbackend, con.report.batches),
      "TouchStats == recount over the report's batches");
  const bool touch_checksum = warn_unless(
      con.report.memory.checksum ==
          analytic_checksum(cbackend, con.report.batches),
      "checksum == analytic fill expectation");

  // ---- Adaptive selection: opposite winners on two workloads. --------
  const AdaptiveCase cases[] = {
      {"hot under LABEL-TREE", &label, &color, 0xA1E25},
      {"hot under COLOR", &color, &label, 0xA2E25},
  };
  TableWriter atable({"workload", "base", "winner", "active after run",
                      "epochs", "switches", "backend on == off"});
  bool adaptive_converged = true;
  bool adaptive_unperturbed = true;
  Json ajson = Json::array();
  for (const AdaptiveCase& c : cases) {
    const std::vector<Request> stream =
        adaptive_requests(*c.base, request_count() / 2, c.seed);
    ServerOptions opts = serve_options(nullptr);
    opts.adaptive.epoch_batches = 8;
    opts.adaptive.candidates = {&color, &label};
    const RunOutcome off = run_server(*c.base, opts, stream, reps());
    // The backend's placement stays the BASE mapping: the adaptive layer
    // re-routes conflicts without the data moving (arena.hpp), so the
    // same backend serves every epoch.
    const mem::MemoryBackend placement(*c.base);
    opts.memory = &placement;
    const RunOutcome on = run_server(*c.base, opts, stream, reps());

    const Json* astats = on.report.metrics.find("adaptive");
    const std::string active =
        astats == nullptr ? "" : astats->find("active")->as_string();
    const std::uint64_t epochs =
        astats == nullptr ? 0 : astats->find("epochs_planned")->as_uint();
    const std::uint64_t switches =
        astats == nullptr ? 0 : astats->find("switches")->as_uint();
    const bool converged = active == c.winner->name();
    const bool unperturbed =
        same_responses(on.report, off.report, /*skip_memory=*/true);
    adaptive_converged = adaptive_converged &&
        warn_unless(converged, "adaptive converges to the winner");
    adaptive_unperturbed = adaptive_unperturbed &&
        warn_unless(unperturbed, "adaptive run: backend on == off");
    atable.row(c.workload, c.base->name(), c.winner->name(), active, epochs,
               switches, bench::pass_cell(unperturbed));

    Json jc = Json::object();
    jc.set("workload", Json(c.workload));
    jc.set("base", Json(c.base->name()));
    jc.set("winner", Json(c.winner->name()));
    jc.set("active", Json(active));
    jc.set("epochs_planned", Json(epochs));
    jc.set("switches", Json(switches));
    jc.set("converged", Json(converged));
    jc.set("unperturbed", Json(unperturbed));
    ajson.push_back(std::move(jc));
  }
  bench::print_experiment(
      "E25 (adaptive selection: measured conflicts pick the mapping)",
      "80% hot-set traffic monochrome under the base; the selector must "
      "abandon the base for the other candidate",
      atable);

  TableWriter gate({"invariant", "verdict"});
  gate.row("backend on == off (1 worker)", bench::pass_cell(id_onoff));
  gate.row("backend on: 2 workers == 1 worker", bench::pass_cell(id_w2));
  gate.row("backend on: 8 workers == 1 worker", bench::pass_cell(id_w8));
  gate.row("backend on: pipeline 1w == oracle", bench::pass_cell(id_p1));
  gate.row("backend on: pipeline 2w == oracle", bench::pass_cell(id_p2));
  gate.row("worker/pipeline touches == oracle touches",
           bench::pass_cell(touch_pipeline));
  gate.row("touches == recount over batches", bench::pass_cell(touch_recount));
  gate.row("checksum == analytic expectation",
           bench::pass_cell(touch_checksum));
  gate.row("adaptive converges to each workload's winner",
           bench::pass_cell(adaptive_converged));
  gate.row("adaptive responses unperturbed by the backend",
           bench::pass_cell(adaptive_unperturbed));
  bench::print_experiment(
      "E25 (acceptance)",
      "exit code gates the deterministic rows; wall clocks and bandwidth "
      "are recorded for EXPERIMENTS.md",
      gate);

  Json report = Json::object();
  report.set("experiment", Json("E25"));
  report.set("smoke", Json(smoke_mode()));
  report.set("tree_levels", Json(std::uint64_t{tree_levels()}));
  report.set("modules", Json(std::uint64_t{color.num_modules()}));
  report.set("requests", Json(request_count()));
  report.set("payload_bytes", Json(std::uint64_t{64}));
  report.set("resident_bytes_per_backend",
             Json(backends.front().resident_bytes()));
  Json jrows = Json::object();
  for (const MappingRow& row : rows) {
    Json jr = Json::object();
    jr.set("wall_seconds_off", Json(row.off.wall_seconds));
    jr.set("wall_seconds_on", Json(row.on.wall_seconds));
    jr.set("nodes_touched", Json(row.touched.nodes));
    jr.set("bytes_touched", Json(row.touched.bytes));
    jr.set("checksum", Json(mem::detail::hex64(row.touched.checksum)));
    jr.set("touch_gib_per_sec", Json(row.gibps));
    jrows.set(row.mapping->name(), std::move(jr));
  }
  report.set("rows", std::move(jrows));
  report.set("adaptive", std::move(ajson));
  report.set("identical_on_off", Json(id_onoff));
  report.set("identical_workers", Json(id_w2 && id_w8));
  report.set("identical_pipeline", Json(id_p1 && id_p2));
  report.set("touchstats_pipeline_equal", Json(touch_pipeline));
  report.set("touchstats_recount_equal", Json(touch_recount));
  report.set("checksum_analytic_equal", Json(touch_checksum));
  report.set("adaptive_converged", Json(adaptive_converged));
  report.set("adaptive_unperturbed", Json(adaptive_unperturbed));

  std::string dir = ".";
  if (const char* env = std::getenv("PMTREE_BENCH_JSON"); env != nullptr) {
    dir = env;
  }
  const std::string path = dir + "/BENCH_E25_realmem.json";
  std::ofstream file(path);
  if (file) {
    file << report.dump(2) << '\n';
    std::cout << "JSON real-memory report written to " << path << "\n";
  } else {
    std::cout << "warning: could not write " << path << "\n";
  }

  if (!(id_onoff && id_w2 && id_w8 && id_p1 && id_p2 && touch_pipeline &&
        touch_recount && touch_checksum && adaptive_converged &&
        adaptive_unperturbed)) {
    std::cout << "ERROR: real-memory determinism/adaptive invariants "
                 "failed\n";
    std::exit(1);
  }
}

// google-benchmark timings: end-to-end serve with the backend off/on.

struct BenchSetup {
  CompleteBinaryTree tree;
  ColorMapping mapping;
  mem::MemoryBackend memory;
  std::vector<Request> requests;
  BenchSetup()
      : tree(smoke_mode() ? 10 : 13),
        mapping(make_optimal_color_mapping(tree, 15)),
        memory(mapping),
        requests(request_stream(tree.levels(), smoke_mode() ? 300 : 2000,
                                7)) {}
};

void BM_RealMemServe(benchmark::State& state) {
  const BenchSetup s;
  Server server(s.mapping,
                serve_options(state.range(0) != 0 ? &s.memory : nullptr));
  for (auto _ : state) {
    for (const Request& r : s.requests) server.submit(r);
    const ServeReport report = server.run();
    benchmark::DoNotOptimize(report.memory.checksum);
  }
}
BENCHMARK(BM_RealMemServe)->Arg(0)->Arg(1);

void BM_TouchBatch(benchmark::State& state) {
  const BenchSetup s;
  Rng rng(11);
  std::vector<Node> nodes;
  const std::uint32_t bottom = s.tree.levels() - 1;
  for (int k = 0; k < 96; ++k) {
    nodes.push_back(v(rng.below(pow2(bottom)), bottom));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.memory.touch(nodes).checksum);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes.size()) *
                          s.memory.stride_bytes());
}
BENCHMARK(BM_TouchBatch);

}  // namespace

int main(int argc, char** argv) {
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
