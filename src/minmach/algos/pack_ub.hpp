// Certified upper bound on the migratory optimum via constructive packing
// (the upper side of the bound tier, DESIGN.md §14).
//
// A greedy fluid packing walks the elementary segments between event points
// left to right; within each segment of length L it grants wall time
// min(L, remaining) to jobs in priority order -- earliest deadline first,
// or least laxity first -- until the m*L capacity is spent. Granting at
// most L per job per segment is exactly McNaughton's wrap-around condition,
// so a successful pass realizes as a concrete migratory schedule, which is
// then audited by core/validate. The certificate is therefore a feasible
// schedule, never a heuristic estimate: pack_upper_bound's machine count is
// a true upper bound on OPT for every input.
//
// The packing is not exact (greedy fluid EDF/LLF can miss feasible budgets
// the max flow certifies), so the driver gallops the machine budget up from
// `start` until a pass succeeds -- n machines always do: with cap n*L every
// released job runs at full rate through its whole window -- and then
// binary-searches the witness down within a fixed attempt budget. Spirit of
// the rounding schemes in Chen--Megow--Schewior and Im--Moseley--Pruhs--
// Stein (PAPERS.md): a cheap constructive packer whose witness bounds the
// optimum from above.
#pragma once

#include <cstdint>

#include "minmach/core/bounds.hpp"
#include "minmach/core/instance.hpp"

namespace minmach {

struct PackUbOptions {
  // First machine budget to try; pass a certified lower bound so a success
  // at `start` pinches the sandwich outright. Clamped into [1, n].
  std::int64_t start = 1;
  // Audit mode for the winning pass. True: realize the McNaughton schedule
  // and run it through core/validate (the strongest audit; always used on
  // non-integer instances). False: on the int64 fast path, check the
  // McNaughton realizability conditions directly on the chunks -- every
  // chunk fits its segment and its job's window, every job receives exactly
  // its processing time, no segment exceeds machines_used * length. These
  // are precisely the facts validate() re-derives from the realized
  // schedule, so the certificate is equally binding, without the Rat
  // schedule construction; the oracle's sandwich uses this mode.
  bool audit_schedule = true;
};

struct PackUbResult {
  // Certified upper bound on OPT: a feasible schedule on this many machines
  // exists (n for the trivial one-job-per-machine certificate, 0 for the
  // empty instance).
  std::int64_t machines = 0;
  PackWitness witness = PackWitness::kSingleton;
  std::uint64_t attempts = 0;  // packing passes executed
  // The witness schedule passed core/validate. False only for the trivial
  // singleton certificate (vacuously feasible, nothing to audit) or a
  // malformed instance.
  bool validated = false;
};

// Certified upper bound on the migratory optimum of `instance`. Returns the
// trivial n-machine certificate for a malformed instance (which no packing
// can serve) and {0} for an empty one.
[[nodiscard]] PackUbResult pack_upper_bound(const Instance& instance,
                                            const PackUbOptions& options = {});

}  // namespace minmach
