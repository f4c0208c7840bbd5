// Test-only reference for the migratory feasibility oracle: Horn's dense
// per-segment network through solve_migratory, and OPT by plain binary
// search over [1, n]. It shares none of FeasibilityOracle's compressed or
// spliced networks, warm probes, sweep bound, bound tier or OPT cache, so
// the oracle's answers are checked against an independent computation.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "minmach/flow/feasibility.hpp"

namespace minmach {

[[nodiscard]] inline bool reference_feasible(const Instance& instance,
                                             std::int64_t machines) {
  return solve_migratory(instance, machines).has_value();
}

// 0 for the empty instance; throws std::invalid_argument on a malformed one.
[[nodiscard]] inline std::int64_t reference_opt(const Instance& instance) {
  if (!instance.well_formed())
    throw std::invalid_argument("reference_opt: malformed instance");
  std::int64_t lo = 0;  // infeasible (or the empty instance's answer)
  std::int64_t hi = static_cast<std::int64_t>(instance.size());  // feasible
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (reference_feasible(instance, mid) ? hi : lo) = mid;
  }
  return hi;
}

}  // namespace minmach
