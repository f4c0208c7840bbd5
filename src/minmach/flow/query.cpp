#include "minmach/flow/query.hpp"

#include <optional>
#include <stdexcept>

#include "minmach/core/canonical.hpp"
#include "minmach/obs/histogram.hpp"
#include "minmach/obs/profile.hpp"
#include "minmach/util/opt_cache.hpp"

namespace minmach {

QueryStats query_optimal_machines_stats(const Instance& instance) {
  QueryStats out;
  if (instance.empty()) return out;
  if (!instance.well_formed())
    throw std::invalid_argument("query_optimal_machines: malformed instance");
  obs::ProfileSpan span("query");
  obs::ScopedLatency latency("hist.query_ns");

  util::OptCache& cache = util::OptCache::global();
  if (cache.enabled()) {
    if (std::optional<std::int64_t> hit =
            cache.lookup_opt(canonical_fingerprint(instance))) {
      out.machines = *hit;
      out.cache_hit = true;
      return out;
    }
  }
  // The oracle's own galloping/binary search consults the verdict cache
  // per probe and publishes the OPT value itself.
  FeasibilityOracle oracle(instance);
  out.machines = oracle.optimal_machines();
  out.probes = oracle.probes_executed();
  return out;
}

std::int64_t query_optimal_machines(const Instance& instance) {
  return query_optimal_machines_stats(instance).machines;
}

}  // namespace minmach
