#!/usr/bin/env bash
# Runs the pmtree test suite under ASan, UBSan and TSan via the
# CMakePresets.json configurations. The suite must be green under all
# three; TSan in particular covers the cycle engine, the parallel cost
# evaluators and their per-thread scratch (test_analysis_parallel
# runs families past the sequential cutoff, so on every hardware
# thread; on a one-thread host its parallel cases report themselves
# skipped), the lazy batch-accelerator publication
# (test_mapping_batch's ConcurrentFirstUseIsConsistent races four threads
# on a cold ColorMapping), and the serve front-end
# (test_serve_differential races four submitter threads into Server's
# striped-inbox MPSC path and then runs the replica phase at 1/2/8
# workers, asserting responses bit-identical to the single-threaded
# oracle), and degraded mode (test_serve_differential's faulted configs
# re-run replicas across retry rounds at 1/2/8 workers — a data
# race in the fault path or the round fold shows up as a report and as a
# bit-identity mismatch), and multi-tenant serving (test_serve_forest
# races four submitter threads into Forest's striped inboxes in
# ConcurrentSubmissionMatchesSequential and runs every differential
# config's lane execution at 1/2/8 workers — a race in the shared-pool
# admission, the DRR batch formation, or the per-tenant lane fold shows
# up as a TSan report and as a divergence from the 1-worker oracle), and
# the serve batch executor (test_serve_pipeline runs every config at
# 1/2/8 executor threads against the 1-thread run, faulted configs
# included: while the control thread goes on cutting batches and applying
# dyn writes, the executor's workers resolve the chunks of 32 cuts it has
# published, deduplicating the cuts, passing the epoch controllers from
# worker to worker through the observation turn (each observation folds a
# cut into its planner or selector and may mint an epoch mapping),
# reading the shared MemoryBackend slabs, epoch mappings and
# ColorMapping's lazily published batch tables, and writing disjoint
# slices of the round's color buffer;
# at the round barrier the control thread claims the chunks left next to
# the workers through the same claim loop (the 1-thread run resolves
# every chunk that way), then the lanes are fed and drained one thread each,
# whose EngineSession belongs to one thread until the join, while its
# resumed recurrence state may be drained by a different thread next
# round — a race on any of them shows up as a TSan report and as a
# bit-identity mismatch; test_serve_pipeline also throws from resolves
# and from observations at every thread count and expects the lowest
# chunk's exception back from run(), as test_util_parallel does for chunk
# bodies; the `pipeline` ctest label selects the suites that drive the
# executor, the serve fuzzer's wide draw of migration and adaptive slots
# included, and the tsan leg repeats them 20 times, since a race in the
# publication protocol or the observation turn depends on timing and one
# pass can miss it), and
# skew-adaptive migration (test_serve_migration runs migrated serving at
# 1/2/8 workers and 1/2/8 pipeline workers against the single-threaded
# oracle and asserts the epoch audit trail identical;
# ServeMigration.StagedPipelineMatchesOracleUnderMigration has 2 and 8
# workers read the minted MigratedMapping epochs while the worker holding
# the observation turn mints more — a race between those epoch mints and
# the other workers' epoch-mapping reads shows up as a TSan report and as
# a divergent rotation table; the `migration` ctest label selects the
# mapping + serve migration suites together), and dynamic trees
# (test_dyn_serve runs mixed read/write traffic at 1/2/8 workers and
# 1/2/4/8 pipeline workers against the single-threaded oracle, arenas
# over the colorer included — the executor's workers race to build and
# CAS-publish the batch tables of the colorer's ColorMapping on its
# first color_of_batch, so a race shows up as a TSan report and as a
# response or mutation-log divergence; test_dyn_tree checks the live
# bitmap's verdicts against a set-based model; test_dyn_incremental
# re-checks the colorer against a from-scratch mapping over the tree's
# current height after every mutation batch, and test_engine_faults
# drives insert/erase batches through fail-stop fault epochs at 2/8
# workers — the `dyn` ctest label selects these four suites),
# and real-memory arenas + adaptive selection (test_mem_arena's
# multi-chunk cases build 17-level arenas, two chunks of 2^16 BFS ids,
# through the parallel two-pass build: each worker colors its chunks
# into disjoint slices of the color table and counts them into its own
# rows of the per-chunk module counts, and after the prefix fills
# disjoint slots of the one region and of the address table — a race
# there shows up as a TSan report and as a layout or checksum mismatch;
# test_serve_mem touches
# the immutable MemoryBackend slabs from the executor's workers at 1/2/8
# workers and pipeline workers — a race in the concurrent touch path or
# the per-cut TouchStats fold shows up as a TSan report and as a
# totals/checksum divergence from the single-threaded recount;
# test_serve_adaptive runs the AdaptiveSelector's epoch switches at
# 1/2/8 workers and pipeline workers against the oracle, so a race
# between the selector's observations, handed from worker to worker by
# the observation turn, and the other workers' epoch-mapping reads
# surfaces as a report or a response divergence —
# the `mem` ctest label selects the arena, selector and serve-layer
# suites), and the seeded serve fuzzer (test_serve_fuzz draws Server and
# Forest configurations with every slot option, a dyn binding, fault
# plans and arenas included, checks that the draws the slot check
# refuses throw at construction and out-of-tree requests throw at
# submit, and runs every accepted draw at 1/2/8 workers and 2/8 pipeline
# workers — an out-of-bounds node, arena or colorer access shows up as
# an ASan/UBSan report, a race as a TSan report and a divergence).
# The `serve` ctest label selects every suite that pins the serve control
# plane and its batch executor (test_serve_*, test_dyn_serve,
# test_engine_session, test_engine_faults) — the one-command safety net
# for changes there (`tests/run_sanitizers.sh tsan` runs them with the
# rest; `ctest --test-dir build-tsan -L serve` re-runs just them).
#
#   tests/run_sanitizers.sh             # all three sanitizers, full suite
#   tests/run_sanitizers.sh tsan        # one sanitizer
#   tests/run_sanitizers.sh tsan Serve  # ctest -R filter (regex)
#
# Benchmarks are off in the sanitizer presets (google-benchmark under TSan
# is noise, not signal); examples and tests build and run. Every preset
# configures with PMTREE_WERROR=ON, so a compiler warning fails its leg.
set -euo pipefail

cd "$(dirname "$0")/.."

sanitizers=(asan ubsan tsan)
if [[ $# -ge 1 && -n "$1" ]]; then
  sanitizers=("$1")
fi
filter=()
if [[ $# -ge 2 && -n "$2" ]]; then
  filter=(-R "$2")
fi

jobs="$(nproc 2>/dev/null || echo 4)"
failed=()

for name in "${sanitizers[@]}"; do
  echo "==== [$name] configure ===="
  cmake --preset "$name"
  echo "==== [$name] build ===="
  cmake --build --preset "$name" -j "$jobs"
  echo "==== [$name] ctest ===="
  if ! ctest --test-dir "build-$name" --output-on-failure -j "$jobs" "${filter[@]}"; then
    failed+=("$name")
  fi
  if [[ "$name" == tsan ]]; then
    echo "==== [$name] ctest -L pipeline, repeated ===="
    if ! ctest --test-dir "build-$name" --output-on-failure -j "$jobs" \
        -L pipeline --repeat until-fail:20 "${filter[@]}"; then
      failed+=("$name (pipeline repeat)")
    fi
  fi
done

if [[ ${#failed[@]} -ne 0 ]]; then
  echo "FAILED under: ${failed[*]}" >&2
  exit 1
fi
echo "All sanitizer runs clean: ${sanitizers[*]}"
