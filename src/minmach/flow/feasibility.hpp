// Exact migratory feasibility and OPT via max flow (Horn's network):
// source -> job j with capacity p_j; job -> segment [t_k, t_k+1) with
// capacity t_k+1 - t_k whenever the segment lies in I(j); segment -> sink
// with capacity m * (t_k+1 - t_k). The instance is feasible on m migratory
// machines iff the max flow saturates all source edges. This is the
// polynomial-time offline optimum the paper's introduction refers to ([6]),
// and the ground truth every competitive-ratio experiment divides by.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "minmach/core/bounds.hpp"
#include "minmach/core/instance.hpp"
#include "minmach/core/schedule.hpp"

namespace minmach {

// Per-segment processing assignment: allocation[j][k] = wall time job j is
// processed during segment k (segments from Instance::event_points()).
struct FlowAllocation {
  std::vector<Rat> segment_starts;  // size k+1: the event points
  std::vector<std::vector<Rat>> per_job;
};

// Reusable per-instance feasibility oracle. The Horn network depends on the
// machine count only through the segment->sink capacities machines*|segment|,
// so the oracle normalizes the instance (integer grid when denominators
// allow, exact rationals otherwise) and builds the network ONCE; each probe
// retunes the sink capacities. The network is segment-tree-compressed,
// ascending probes warm-start from the previous flow, and the search opens
// at the sweep load lower bound -- so OPT typically costs one network build
// plus roughly one max-flow in total. Verdicts are memoized and feasible(m)
// is monotone in m. The SIMD kernels follow the global util::simd mode and
// the bound tier the global bounds_tier_enabled() gate; neither moves an
// answer.
//
// When the global OPT cache is enabled (util::OptCache::global(), see
// DESIGN.md §11), the constructor fingerprints the instance's affine
// canonical form and feasible()/optimal_machines() consult the cache before
// probing, publishing fresh verdicts back. Verdicts are exact properties of
// the instance, so results are byte-identical with the cache on or off.
class FeasibilityOracle {
 public:
  explicit FeasibilityOracle(const Instance& instance);
  // Zero-copy construction from int64 SoA columns (typically an mmap'd
  // corpus InstanceView, store/corpus.hpp): the columns are adopted as the
  // integer grid directly -- no Instance, no rational normalization. The
  // columns may be an affine image (t -> scale * t) of a rational
  // instance; feasibility and OPT are invariant under that map, so answers
  // equal the original's, but jobs passed to insert_job() later must be in
  // the same scaled coordinates. The columns are copied into the oracle's
  // arrays during construction and need not outlive the call. Values
  // outside the integer fast path's 62-bit guard fall back to the exact
  // path, reproducing the Instance constructor bit for bit.
  explicit FeasibilityOracle(const JobColumns& columns);
  ~FeasibilityOracle();
  FeasibilityOracle(FeasibilityOracle&&) noexcept;
  FeasibilityOracle& operator=(FeasibilityOracle&&) noexcept;

  // True iff the instance is feasible on `machines` migratory machines.
  // Memoized; probes the network only for verdicts not implied by
  // monotonicity or by the certified load lower bound.
  [[nodiscard]] bool feasible(std::int64_t machines);

  // ---- dynamic edits (DESIGN.md §15) ----------------------------------
  //
  // The oracle's job set becomes mutable: insert_job admits a new job and
  // returns its stable id, remove_job retires one. Ids for jobs from the
  // constructor instance are their indices there; inserted jobs get the
  // next unused id. An already-built network is spliced in place and the
  // routed flow repaired warm. Every verdict afterwards is exactly the
  // batch oracle's on the live job set, and the monotone memo carries across the edit via the sound
  // shifts: an insert can only grow OPT, and by at most 1 (the new job
  // alone fits one extra machine); a remove can only shrink it, by at most
  // 1 (re-adding the removed job to a schedule needs at most one machine).
  //
  // insert_job throws std::invalid_argument on a malformed job or a
  // malformed-constructed oracle; remove_job on an unknown/retired id.
  JobId insert_job(const Job& job);
  void remove_job(JobId id);
  // Jobs currently admitted (constructor jobs plus inserts minus removes).
  [[nodiscard]] std::int64_t live_jobs() const;

  // Exact migratory OPT: ascends from load_lower_bound() with warm-started
  // probes (galloping when the bound is loose, then binary-searching the
  // bracket). Returns 0 for the empty instance; throws
  // std::invalid_argument on a malformed one.
  [[nodiscard]] std::int64_t optimal_machines();

  // A certified lower bound on OPT (>= 1 for a non-empty instance): the
  // density bound ceil(total work / span), sharpened by the sweep
  // single-interval load bound (computed lazily on first call). On instances with many event points the sweep
  // subsamples left endpoints (a budgeted, still-certified bound), so this
  // can be slightly below load_bound_single_interval().
  [[nodiscard]] std::int64_t load_lower_bound() const;

  // The certified sandwich lo <= OPT <= hi (computed lazily on first use
  // and folded into the verdict memo, so the oracle's own search also
  // starts from it). With the bound tier's global gate off returns the degenerate bracket the pre-tier search
  // effectively used -- [max(load_lower_bound(), memo floor), min known
  // feasible] -- so callers can seed searches uniformly. Empty instance:
  // {0, 0}.
  [[nodiscard]] BoundSandwich bound_sandwich();

  // Network probes this oracle actually executed (memo hits, OPT-cache
  // hits, and bound-tier short-circuits excluded). Exposed for the query
  // engine's statistics and the cache/bounds A/B benches.
  [[nodiscard]] std::uint64_t probes_executed() const;

 private:
  struct Impl;
  // Oracles lease a per-thread pooled Impl when it is free (so a sweep that
  // constructs one oracle per instance recycles the probe network's
  // adjacency/edge/level storage call after call, see DESIGN.md §10) and
  // fall back to a fresh heap Impl when the pool is busy -- a nested
  // oracle. The deleter returns a leased Impl
  // to its pool instead of deleting it; an Impl released on a thread other
  // than its owner is simply retired from pooling (memory-safe, the slot
  // stays busy).
  struct ImplDeleter {
    void operator()(Impl* impl) const noexcept;
  };
  static std::unique_ptr<Impl, ImplDeleter> acquire_impl();
  std::unique_ptr<Impl, ImplDeleter> impl_;
};

// True iff the instance admits a feasible preemptive migratory schedule on
// `machines` unit-speed machines. One-shot; for repeated probes of the same
// instance use FeasibilityOracle.
[[nodiscard]] bool feasible_migratory(const Instance& instance,
                                      std::int64_t machines);

// As above, and on success returns the per-segment allocation.
[[nodiscard]] std::optional<FlowAllocation> solve_migratory(
    const Instance& instance, std::int64_t machines);

// Exact minimum machine count (galloping + binary search through a shared
// FeasibilityOracle). Returns 0 for the empty instance.
[[nodiscard]] std::int64_t optimal_migratory_machines(const Instance& instance);

// Builds a concrete feasible migratory schedule on `machines` machines
// (McNaughton wrap-around within each segment). Throws std::invalid_argument
// if infeasible. Pass optimal_migratory_machines(..) for an OPT schedule.
[[nodiscard]] Schedule optimal_migratory_schedule(const Instance& instance,
                                                  std::int64_t machines);

}  // namespace minmach
