// Exact single-machine preemptive EDF feasibility.
//
// EDF is optimal for preemptive feasibility on one machine, so "can this
// machine still meet all its commitments (plus possibly one more job)?" is
// decided exactly by simulating EDF over the event points. This test is the
// admission rule of the offline KP transform substitute and the reference
// for the non-migratory policies' incremental slack profiles (nonmig.hpp).
#pragma once

#include <optional>
#include <vector>

#include "minmach/core/schedule.hpp"
#include "minmach/util/rational.hpp"

namespace minmach {

// A commitment on one machine: `remaining` units of work to be done within
// [available_from, deadline). available_from is max(r_j, now) for online
// use.
struct MachineCommitment {
  Rat available_from;
  Rat deadline;
  Rat remaining;
};

// True iff preemptive EDF at the given speed finishes every commitment by
// its deadline, starting at time `start` (commitments with available_from <
// start are treated as available at start).
[[nodiscard]] bool edf_feasible_single_machine(
    std::vector<MachineCommitment> commitments, const Rat& start,
    const Rat& speed = Rat(1));

// As above but with job identities, returning the concrete single-machine
// EDF slot list (or nullopt if some deadline is missed). Used by the
// offline migratory -> non-migratory transform to materialize per-machine
// schedules.
struct LabeledCommitment {
  Rat available_from;
  Rat deadline;
  Rat remaining;
  JobId job = kInvalidJob;
};
[[nodiscard]] std::optional<std::vector<Slot>> edf_schedule_single_machine(
    std::vector<LabeledCommitment> commitments, const Rat& start,
    const Rat& speed = Rat(1));

}  // namespace minmach
