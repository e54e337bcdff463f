// Shared vocabulary of the E26 end-to-end benchmark (see ../README.md).
//
// A workload is a "rig": it owns the system under test (trees, mappings,
// arenas, Server or Forest instances for the oracle tick loop and for the
// staged pipeline) and one seeded request stream. main.cpp drives every
// rig through the same phases: repeated set-up, alternating timed runs of
// both execution paths, correctness gates, and — in the traced mode — the
// per-layer attribution.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pmtree/util/json.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t ns_between(Clock::time_point a,
                                              Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Wall time spent in one layer's calls, and how many calls were timed.
struct Span {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
};

/// Runs `f`, adding its wall nanoseconds to `span`; returns f's result.
template <typename F>
decltype(auto) timed(Span& span, F&& f) {
  struct Add {
    Span& span;
    Clock::time_point start = Clock::now();
    ~Add() {
      span.ns += ns_between(start, Clock::now());
      span.calls += 1;
    }
  } add{span};
  return f();
}

/// What timed() itself adds to each span it measures: the median cost
/// of timing an empty call, in nanoseconds.
[[nodiscard]] double span_overhead_ns();

/// A correctness gate failed: the run reports no numbers and exits nonzero.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Median of a non-empty sample (even N averages the two middles).
[[nodiscard]] double median(std::vector<double> sample);

/// Exact nearest-rank percentile of an ascending-sorted sample:
/// the ceil(q * n)-th smallest value.
[[nodiscard]] std::uint64_t nearest_rank(
    const std::vector<std::uint64_t>& sorted, double q);

/// Host facts recorded with every result (host.cpp).
struct HostFacts {
  unsigned nproc = 1;
  std::string simd_kernel;
  std::uint64_t l1d_bytes = 0;
  std::uint64_t l2_bytes = 0;
  std::uint64_t llc_bytes = 0;
  std::string compiler;
  std::string build_type;
  bool release = false;
  std::string commit;
  std::string source_digest;

  [[nodiscard]] pmtree::Json to_json() const;
};

[[nodiscard]] HostFacts probe_host(std::string commit,
                                   std::string source_digest);
/// getrusage max resident set size, in MiB.
[[nodiscard]] double peak_rss_mib();

class Rig {
 public:
  virtual ~Rig() = default;

  /// (Re)builds the system under test from scratch — tree, mappings,
  /// arenas, Server/Forest construction — and runs the warm-up that
  /// builds lazy color tables and the pipeline worker pool.
  virtual void setup() = 0;

  /// One end-to-end run of the whole stream on the oracle tick loop
  /// (`pipeline == false`) or the staged pipeline. Returns the wall
  /// seconds from the first submit() to run() returning, after gating
  /// the report against the reference run.
  virtual double timed_run(bool pipeline) = 0;

  /// Requests in the stream (the numerator of the *_wall_rps metrics).
  [[nodiscard]] virtual std::size_t requests() const = 0;

  /// Deterministic end-to-end metrics of the reference run: sim_* and
  /// failed_frac. Runs the end-of-run gates first.
  virtual void sim_metrics(Metrics& out) = 0;

  /// Traced run: per-layer metrics plus sweeps, within `seconds`.
  /// `detail` collects what the metrics cannot carry: sweep tables and
  /// the layers this workload does not time.
  virtual void traced(double seconds, Metrics& out, pmtree::Json& detail) = 0;

  /// Facts about the stream and configuration, printed with the result.
  [[nodiscard]] virtual pmtree::Json describe() const = 0;

  /// Serve runs (and replays) whose results passed every gate so far.
  [[nodiscard]] std::uint64_t gated_runs() const { return gated_runs_; }

 protected:
  std::uint64_t gated_runs_ = 0;
};

std::unique_ptr<Rig> make_big_tree_paths(std::uint64_t seed,
                                         const HostFacts& host);
std::unique_ptr<Rig> make_rw_dyn_churn(std::uint64_t seed,
                                       const HostFacts& host);
std::unique_ptr<Rig> make_hot_forest_overload(std::uint64_t seed,
                                              const HostFacts& host);

/// Moves the calling thread onto the `k mod n`-th of its n allowed CPUs,
/// then lifts the pin: the thread starts there and the scheduler is free
/// to move it again. The staged pipeline's speed depends on whether the
/// control thread shares a CPU with a worker, and a process tends to keep
/// whichever placement it started with; starting each measurement segment
/// on another CPU keeps one sticky placement from deciding a whole run.
void start_on_cpu(unsigned k);

/// Pipeline worker count of the end-to-end runs: nproc - 1 (at least 1),
/// so the control thread plus its workers never exceed nproc.
[[nodiscard]] unsigned pipeline_workers(const HostFacts& host);

/// Worker counts of the traced pipeline sweep. Fixed so metric names are
/// the same on every host: 1..3 is 1..nproc-1 on the 4-CPU reference host.
inline constexpr unsigned kSweepWorkers[] = {1, 2, 3};

/// Runs `body` at least `min_reps` times and until `budget_s` seconds
/// have passed (at most `max_reps` times); returns each run's result.
template <typename F>
std::vector<double> repeat_for(double budget_s, int min_reps, int max_reps,
                               F&& body) {
  std::vector<double> out;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(out.size()) < max_reps) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (static_cast<int>(out.size()) >= min_reps && elapsed >= budget_s) break;
    out.push_back(body());
  }
  return out;
}

}  // namespace e2e
