// Theorem verdicts: each verify_* function checks one of the paper's
// statements against a concrete mapping, exhaustively, and reports a
// machine-checkable verdict with a human-readable detail string. Tests
// assert verdicts; the bench harness prints them next to measured numbers.
// Every scan walks a family's one definition (templates/enumerate.hpp):
// the S/L/P verdicts through evaluate_*, the two TP verdicts through
// tp_at over the index range of the anchor levels they cover.
#pragma once

#include <cstdint>
#include <string>

#include "pmtree/mapping/mapping.hpp"

namespace pmtree {

struct Verdict {
  bool ok = false;
  std::uint64_t measured = 0;  ///< worst value observed
  std::uint64_t bound = 0;     ///< the theorem's bound
  std::string detail;          ///< witness description when !ok

  explicit operator bool() const noexcept { return ok; }
};

/// Theorems 1/3: the mapping is conflict-free on S(K) and P(N).
[[nodiscard]] Verdict verify_cf_elementary(const TreeMapping& mapping,
                                           std::uint64_t K, std::uint32_t N);

/// Lemma 1: every TP(K, j) instance is rainbow (all colors distinct).
/// Lemma 1 is a per-block statement, so the family is capped: j <= N on
/// single-block trees, and j <= N - k + 1 on taller trees (the deepest
/// anchors whose subtree part still lies inside the root block; deeper
/// subtrees reach into child blocks, whose Gamma colors legitimately
/// revisit root-path colors).
[[nodiscard]] Verdict verify_tp_rainbow(const TreeMapping& mapping,
                                        std::uint64_t K, std::uint32_t N);

/// Theorem 2's lower-bound witness: TP(K, N-k) instances have exactly
/// N + K - k nodes, so any mapping CF on them needs >= N + K - k colors.
/// Verifies instance sizes and rainbowness for the given mapping, and
/// stops at the first instance that fails; a tree without level N - 1, or
/// N <= k, leaves no witness.
[[nodiscard]] Verdict verify_optimality_witness(const TreeMapping& mapping,
                                                std::uint32_t N, std::uint32_t k);

/// Theorem 4: cost at most 1 on S(M) and P(M), with M = num_modules().
/// S(M) needs M = 2^m - 1; other module counts throw std::invalid_argument.
[[nodiscard]] Verdict verify_full_parallelism(const TreeMapping& mapping);

/// Lemma 2: cost at most 1 on L(K).
[[nodiscard]] Verdict verify_level_cost(const TreeMapping& mapping,
                                        std::uint64_t K, std::uint64_t bound);

}  // namespace pmtree
