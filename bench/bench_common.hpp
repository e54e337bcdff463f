// Shared helpers for the pmtree benchmark harness.
//
// Each bench binary regenerates one experiment of EXPERIMENTS.md: it
// prints the experiment's result table(s) once at startup (so plain
// `./bench_*` output contains the paper-shaped tables) and registers
// google-benchmark timings where runtime is the measured quantity.
#pragma once

#include <benchmark/benchmark.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "pmtree/util/table.hpp"

namespace pmtree::bench {

/// Prints a banner + table to stdout, once, before google-benchmark runs.
/// If the environment variable PMTREE_BENCH_CSV names a directory, the
/// table is additionally written there as <experiment-id>.csv so plots
/// can be regenerated without parsing the text tables.
inline void print_experiment(const std::string& id, const std::string& claim,
                             const TableWriter& table) {
  std::cout << "\n=== " << id << " — " << claim << " ===\n";
  table.print(std::cout);
  std::cout << std::endl;

  if (const char* dir = std::getenv("PMTREE_BENCH_CSV"); dir != nullptr) {
    std::string file;
    for (const char c : id) {
      file += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    }
    std::string path(dir);
    if (!path.empty() && path.back() != '/') path += '/';
    path += file + ".csv";
    std::ofstream out(path);
    if (out) {
      table.print_csv(out);
    } else {
      std::cerr << "pmtree-bench: cannot write " << path
                << " (PMTREE_BENCH_CSV=" << dir
                << " — does the directory exist?)\n";
    }
  }
}

/// "0" / "<=1" style verdict cell.
inline std::string pass_cell(bool ok) { return ok ? "PASS" : "FAIL"; }

}  // namespace pmtree::bench
