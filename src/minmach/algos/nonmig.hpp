// Non-migratory assign-at-release framework.
//
// Every non-migratory online algorithm in this library commits each job to
// one machine at its release (the natural model: a non-migratory algorithm
// gains nothing from delaying the commitment past a_j = r_j + l_j, and the
// lower-bound game of Section 3 observes commitments through processing).
// Per machine the dispatcher runs preemptive EDF over the assigned active
// jobs, which is optimal for a fixed assignment, so an admission test that
// decides single-machine EDF feasibility is exact.
//
// Each machine keeps an incremental slack profile (DESIGN.md §3.1): its
// active jobs in (deadline, JobId) order, each with
//   slack_i = (d_i - now) * s - sum_{k <= i} remaining_k.
// Every commitment on a machine is released when a job is admitted, so
// EDF feasibility is the prefix-demand test "every slack >= 0". The
// dispatcher always runs the profile head, which is in every prefix, so
// both terms of a slack fall at rate s and slacks stay fixed while time
// advances. Admission is then a handful of comparisons, a commitment
// subtracts p from the later slacks, and completions/misses erase an entry
// (a miss adds its leftover work back to the later slacks); nothing is
// replayed.
//
// Subclasses only choose the machine. The provided fit rules are the
// opponent suite for the strong lower bound (experiment E1): a lower bound
// quantifies over all algorithms, the game is played against each of these.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "minmach/sim/engine.hpp"
#include "minmach/util/rng.hpp"

namespace minmach {

class NonMigratoryPolicy : public OnlinePolicy {
 public:
  // Final: the slack profiles are only exact if every event reaches them
  // and every machine runs its profile head.
  void on_release(Simulator& sim, JobId job) final;
  void on_complete(Simulator& sim, JobId job) final;
  void on_miss(Simulator& sim, JobId job) final;
  void dispatch(Simulator& sim) final;

  // Machine the job was committed to (set at its release).
  [[nodiscard]] std::optional<std::size_t> machine_of(JobId job) const;
  [[nodiscard]] std::size_t open_machines() const { return profiles_.size(); }

 protected:
  // Decide the machine for the newly released job. Returning open_machines()
  // (or any index beyond) opens new machines.
  virtual std::size_t choose_machine(Simulator& sim, JobId job) = 0;

  // Machines on which the job, added to the existing commitments, is
  // EDF-feasible from now on (exact test, ascending order).
  [[nodiscard]] std::vector<std::size_t> feasible_machines(const Simulator& sim,
                                                           JobId job) const;
  // As above, but into a pooled buffer: the returned reference is valid
  // until the next call on this policy (any thread). The per-release hot
  // path of every fit rule uses this.
  [[nodiscard]] const std::vector<std::size_t>& feasible_machines_pooled(
      const Simulator& sim, JobId job) const;
  // Exact admission test for a job at its release.
  [[nodiscard]] bool machine_can_take(const Simulator& sim,
                                      std::size_t machine, JobId job) const;

  // Total remaining committed work on a machine.
  [[nodiscard]] Rat machine_load(const Simulator& sim,
                                 std::size_t machine) const;

 private:
  // One active job of a machine's slack profile.
  struct ProfileEntry {
    Rat deadline;
    JobId job;
    Rat slack;  // (deadline - now) * s - remaining work up to this entry
  };
  using Profile = std::vector<ProfileEntry>;

  // Index of the first entry after (deadline, job) in profile order.
  [[nodiscard]] static std::size_t insert_position(const Profile& profile,
                                                   const Rat& deadline,
                                                   JobId job);
  // Slack a job with this deadline would have at `pos`, before its own
  // work is counted.
  [[nodiscard]] static Rat slack_before(const Profile& profile,
                                        std::size_t pos, const Rat& deadline,
                                        const Simulator& sim);
  // Erases the job's entry; `leftover` is the work it still owed.
  void remove(std::size_t machine, JobId job, const Rat& leftover);

  std::vector<Profile> profiles_;
  std::vector<std::optional<std::size_t>> machine_by_job_;
  mutable std::vector<std::size_t> feasible_scratch_;
};

enum class FitRule {
  kFirstFit,    // lowest-index feasible machine
  kBestFit,     // feasible machine with the largest remaining load
  kWorstFit,    // feasible machine with the smallest remaining load
  kRandomFit,   // uniformly random feasible machine
  kNextFit,     // round-robin cursor over feasible machines
};

[[nodiscard]] const char* fit_rule_name(FitRule rule);

// Opens a new machine iff no existing machine passes the exact EDF
// admission test.
class FitPolicy : public NonMigratoryPolicy {
 public:
  explicit FitPolicy(FitRule rule, std::uint64_t seed = 1);

  [[nodiscard]] std::string name() const override;

 protected:
  std::size_t choose_machine(Simulator& sim, JobId job) override;

 private:
  FitRule rule_;
  Rng rng_;
  std::size_t cursor_ = 0;
};

}  // namespace minmach
