// Seeded fault plans for the fault and serve suites: the generator the
// suites draw their fault scenarios from, which the library does not
// need. Header-only; each suite includes it directly.
//
// Every drawn value is a pure function of the options (util/rng.hpp
// streams are identical on every platform), so a RandomOptions value *is*
// a reproducible fault scenario.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pmtree/fault/plan.hpp"
#include "pmtree/util/rng.hpp"

namespace pmtree::fault {

/// Knobs for the seeded generator.
struct RandomOptions {
  std::uint64_t seed = 0;
  std::uint32_t modules = 0;      ///< module universe the plan draws from
  /// Fraction of modules fail-stopped, rounded down and capped at
  /// modules - 1 (at least one survivor always remains).
  double fail_fraction = 0.1;
  /// Fail cycles are drawn uniformly from [0, fail_window).
  std::uint64_t fail_window = 1024;
  std::uint32_t slowdown_count = 0;   ///< transient slowdowns to draw
  std::uint64_t slowdown_window = 1024;  ///< begins drawn from [0, window)
  std::uint64_t slowdown_max_length = 256;
  std::uint64_t slowdown_max_period = 4;  ///< periods drawn from [2, max]
};

/// Deterministic seeded plan: `fail_fraction` of the modules fail-stop
/// at random cycles and `slowdown_count` transient slowdowns land on
/// random modules.
[[nodiscard]] inline FaultPlan random_plan(const RandomOptions& options) {
  FaultPlan plan;
  if (options.modules == 0) return plan;
  Rng rng(options.seed);

  // Fail-stop draw: a Fisher-Yates prefix picks `fail_count` distinct
  // modules; capping at modules - 1 keeps at least one survivor so the
  // timeline never has to spare anyone.
  const auto want = static_cast<std::uint64_t>(
      options.fail_fraction * static_cast<double>(options.modules));
  const std::uint64_t fail_count =
      std::min<std::uint64_t>(want, options.modules - 1);
  std::vector<std::uint32_t> ids(options.modules);
  for (std::uint32_t m = 0; m < options.modules; ++m) ids[m] = m;
  for (std::uint64_t j = 0; j < fail_count; ++j) {
    const std::uint64_t pick = j + rng.below(options.modules - j);
    std::swap(ids[j], ids[pick]);
    const std::uint64_t cycle =
        options.fail_window == 0 ? 0 : rng.below(options.fail_window);
    plan.fail_stop(ids[j], cycle);
  }

  for (std::uint32_t s = 0; s < options.slowdown_count; ++s) {
    const auto module = static_cast<std::uint32_t>(rng.below(options.modules));
    const std::uint64_t begin =
        options.slowdown_window == 0 ? 0 : rng.below(options.slowdown_window);
    const std::uint64_t length =
        rng.between(1, std::max<std::uint64_t>(options.slowdown_max_length, 1));
    const std::uint64_t period =
        rng.between(2, std::max<std::uint64_t>(options.slowdown_max_period, 2));
    plan.slow_down(module, begin, begin + length, period);
  }
  return plan;
}

}  // namespace pmtree::fault
