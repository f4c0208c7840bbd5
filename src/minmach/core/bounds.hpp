// Certified two-sided bounds on the migratory optimum -- the bound tier in
// front of the exact max-flow oracle (DESIGN.md §14).
//
// Lower side: the pigeonhole density bound ceil(total work / span) and the
// single-interval sweep load bound (Theorem 1's easy direction), evaluated
// by the same SIMD-dispatched kernel the oracle uses. Upper side: a
// constructive EDF/LLF packing witness (algos/pack_ub.hpp), audited by
// core/validate -- a schedule, not a heuristic. Together they sandwich
//   lo <= OPT <= hi;
// when the sandwich pinches (lo == hi) the exact oracle returns OPT without
// building a flow network at all, and otherwise the search starts from the
// pre-narrowed bracket [lo, hi).
#pragma once

#include <cstddef>
#include <cstdint>

#include "minmach/core/instance.hpp"

namespace minmach {

// Which constructive packing produced the upper-bound witness.
enum class PackWitness : std::uint8_t {
  kSingleton = 0,  // trivial n-machine certificate: one job per machine
  kEdf,            // earliest-deadline-first fluid packing
  kLlf,            // least-laxity-first fluid packing
};

// How each side of a sandwich was certified.
struct BoundCertificate {
  std::int64_t density_lb = 0;     // ceil(total work / span)
  std::int64_t load_lb = 0;        // max(density, sweep single-interval bound)
  std::int64_t pack_machines = 0;  // machine count of the packing witness
  PackWitness pack = PackWitness::kSingleton;
  bool cache_seeded = false;  // an OPT-cache bounds entry narrowed the bracket
};

// lo <= OPT <= hi with both sides certified: lo by the load argument, hi by
// a validator-audited schedule witness. The degenerate sandwich of an empty
// instance is {0, 0}.
struct BoundSandwich {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  BoundCertificate certificate;

  [[nodiscard]] bool pinched() const { return lo == hi; }
};

// The lower-bound side on its own (the oracle computes it from its already
// normalized grid; this standalone entry point serves the bound tier's
// tests, benches, and direct callers).
struct LowerBoundParts {
  std::int64_t machines = 0;  // max(density, sweep); >= 1 for non-empty input
  std::int64_t density = 0;
  std::int64_t sweep = 0;
};

// Certified lower bound on OPT. Dispatches the int64 SIMD sweep kernel
// (core/load_sweep_simd.hpp) when every job field is a small integer and
// util::simd::active(), and the generic exact-rational kernel otherwise --
// bit-identical results either way. `left_budget` caps the sweep at
// O(budget * (n + S)) by subsampling left endpoints; the result is then a
// max over a subset of intervals, so it stays certified (possibly below the
// exact single-interval bound). Returns all-zero for an empty or malformed
// instance (malformed input has no feasible schedule to bound).
[[nodiscard]] LowerBoundParts certified_lower_bound(
    const Instance& instance, std::size_t left_budget = 256);

// Sweep load bound for exact-rational grids via a double-precision
// prefilter -- the tier's approximate→exact philosophy applied to its own
// lower bound. One O(S * (n + S)) float sweep over ALL event-point pairs
// (no left-endpoint budget needed at float cost) collects the near-argmax
// intervals; only those few candidates are evaluated with exact Rat
// arithmetic, whose max is returned. Any subset max is a certified lower
// bound, so float rounding can only cost tightness, never soundness. The
// all-pairs Rat sweep this replaces compounds denominators in its running
// sums (each += promotes the accumulator toward multi-limb BigInts), which
// is what made rational-mode lower bounds dominate sandwich wall time.
// Falls back to the budgeted exact sweep when the values do not convert to
// finite doubles. Inputs are parallel job arrays plus the sorted distinct
// event points; returns 0 for empty input.
[[nodiscard]] std::int64_t prefiltered_sweep_bound(
    const std::vector<Rat>& release, const std::vector<Rat>& deadline,
    const std::vector<Rat>& processing, const std::vector<Rat>& points,
    std::size_t left_budget = 256);

// Process-wide runtime gate for the bound tier. Defaults to enabled; the
// bench drivers default it OFF via --bounds so the committed baselines keep
// measuring the exact tier alone (bench/b01_bound_tier A/Bs the sandwich
// explicitly). Flip it from driver setup paths only -- it is
// not synchronized against in-flight oracles.
void set_bounds_tier_enabled(bool enabled);
[[nodiscard]] bool bounds_tier_enabled();

}  // namespace minmach
