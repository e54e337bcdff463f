// Report comparison, metric assembly and the pipeline worker sweep,
// shared by the Server and Forest rigs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "bench.hpp"
#include "pmtree/engine/engine.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/serve/mutation.hpp"
#include "pmtree/serve/request.hpp"
#include "pmtree/util/json.hpp"

namespace e2e {

[[nodiscard]] bool same_responses(
    const std::vector<pmtree::serve::Response>& a,
    const std::vector<pmtree::serve::Response>& b);
[[nodiscard]] bool same_batches(
    const std::vector<pmtree::serve::FormedBatch>& a,
    const std::vector<pmtree::serve::FormedBatch>& b);
[[nodiscard]] bool same_mutations(
    const std::vector<pmtree::serve::MutationRecord>& a,
    const std::vector<pmtree::serve::MutationRecord>& b);

/// Distinct 64-byte lines the payloads of `nodes` occupy in `memory`
/// (from payload() addresses; `scratch` is reused storage).
[[nodiscard]] std::uint64_t distinct_lines(
    const pmtree::mem::MemoryBackend& memory,
    std::span<const pmtree::Node> nodes, std::vector<std::uintptr_t>& scratch);

/// The deterministic end-to-end view of one run, over every tenant.
struct SimSummary {
  std::vector<std::uint64_t> latencies;  ///< kOk simulated latencies
  std::uint64_t submitted = 0;
  std::uint64_t failed = 0;  ///< shed + expired
  std::uint64_t final_cycle = 0;

  void add(const std::vector<pmtree::serve::Response>& responses);
};

/// sim_latency_p50/p99/p999_cycles, sim_makespan_cycles and failed_frac.
/// Gates that p99.9 keeps at least ten samples beyond it.
void append_sim_metrics(SimSummary summary, Metrics& out);

/// Every per-layer metric except the pipeline and arena sweeps. Wall
/// times stay 0 when `timed` is false: the workload's control plane is
/// not replayed, so only counts are known.
struct LayerCounts {
  bool timed = false;
  double submit_ns = 0;
  double admission_ns = 0;
  double batch_form_ns = 0;
  double coalesce_ns = 0;
  double color_ns = 0;
  double feed_ns = 0;
  double drain_ns = 0;
  double touch_ns = 0;
  double apply_ns = 0;
  double metrics_ns = 0;
  double unattributed_ns = 0;
  double overhead_frac = 0;

  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_nodes = 0;      ///< deduped nodes over all batches
  std::uint64_t requested_nodes = 0;  ///< pre-dedup nodes over all batches
  std::uint64_t colors = 0;
  std::uint64_t engine_requests = 0;
  std::uint64_t busy_cycles = 0;
  double load_imbalance = 0;  ///< worst replica / lane
  std::uint64_t mem_nodes = 0;
  std::uint64_t mem_bytes = 0;
  std::uint64_t mem_lines = 0;
  std::uint64_t dyn_applied = 0;
  std::uint64_t dyn_rejected = 0;
  std::uint64_t dyn_nodes_colored = 0;
  std::uint64_t retries = 0;
  std::uint64_t rounds = 0;
  std::uint64_t ticks = 0;
  std::uint64_t migration_epochs = 0;
  std::uint64_t migration_moves = 0;
  std::uint64_t adaptive_switches = 0;
  double share_dev_max = 0;
};

void add_engine_counts(const std::vector<pmtree::engine::EngineResult>& runs,
                       LayerCounts& counts);
void append_layer_metrics(const LayerCounts& counts, Metrics& out);

/// The arena working-set sweep's metrics, as 0, on workloads that do not
/// run it (only big_tree_paths does).
void append_arena_sweep_not_run(Metrics& out);

/// One pipelined run: its wall seconds and the runner's cumulative
/// "pipeline" stats section after it.
struct PipelineSample {
  double wall_s = 0;
  pmtree::Json stats;
};

/// Builds a warmed pipelined system with the given worker count and
/// returns a callable that serves the stream once on it.
using PipelineFactory =
    std::function<std::function<PipelineSample()>(unsigned workers)>;

/// Runs the pipeline at `headline` workers (pipeline.* metrics) and at
/// each kSweepWorkers count (pipeline.w<N>.* metrics); stage counters are
/// per-run differences of the cumulative stats, reported as medians.
void sweep_pipeline(unsigned headline, double budget_s,
                    const PipelineFactory& make, Metrics& out,
                    pmtree::Json& detail);

}  // namespace e2e
