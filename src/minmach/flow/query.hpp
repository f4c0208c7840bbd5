// Query engine above the feasibility oracle (DESIGN.md §11).
//
// query_optimal_machines() answers "OPT of this instance" through the
// global affine-canonical OPT cache (util/opt_cache.hpp): a query whose
// canonical fingerprint already has a cached OPT value returns it without
// building a network at all; a miss runs FeasibilityOracle's own search,
// which publishes the value back. The cache is exact: the returned machine
// count is identical to FeasibilityOracle::optimal_machines() for every
// instance, with the cache on or off (differentially tested in
// tests/test_query.cpp).
#pragma once

#include <cstdint>

#include "minmach/core/instance.hpp"
#include "minmach/flow/feasibility.hpp"

namespace minmach {

struct QueryStats {
  std::int64_t machines = 0;  // the answer: exact migratory OPT
  std::uint64_t probes = 0;   // network probes actually executed
  bool cache_hit = false;     // answered from the OPT cache outright
};

// Exact OPT with per-query statistics. Returns machines = 0 for the empty
// instance; throws std::invalid_argument on a malformed one.
[[nodiscard]] QueryStats query_optimal_machines_stats(const Instance& instance);

// Convenience wrapper returning just the machine count.
[[nodiscard]] std::int64_t query_optimal_machines(const Instance& instance);

}  // namespace minmach
