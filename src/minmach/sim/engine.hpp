// Event-driven online scheduling simulator.
//
// Time advances only at events: job releases, completions, deadline
// expiries, and policy-requested wake-ups (e.g. LLF laxity crossings,
// MediumFit start times). All times are exact rationals, so adversary
// constructions that rescale by tiny amounts stay exact.
//
// The policy is called back on releases/completions/misses and then asked to
// dispatch: to state, for each machine it uses, which active job runs until
// the next event. Machines are opened implicitly by using a new index; the
// cost measure machines_used() counts machines that ever processed work.
//
// Adversaries (minmach/adversary) drive the simulator interactively: submit
// a job, run_until(t), inspect remaining processing and the trace, decide
// the next release. This realizes the paper's game between the adversary
// and "any online algorithm".
//
// Memory layout (DESIGN.md §3.2, §10): per-job state is a structure of
// arrays keyed by the dense JobId -- deadline, remaining work, a one-byte
// lifecycle state and the machine the job runs on in parallel vectors -- so
// the hot event loop walks flat arrays instead of chasing Job records.
// Per-machine state is one open *stint* each: the running job, the time its
// uninterrupted run started and its fixed completion time. A running job's
// remaining_ entry holds its work at the stint start; the stint is settled
// (remaining work reduced, one trace slot written) only when it ends at a
// set_running change, a completion or a miss, so time advances between
// events without rational arithmetic. remaining() and schedule() account
// for the open stints on demand. The release and deadline queues are binary
// heaps over pooled vectors (std::push_heap/pop_heap), and reset() clears
// every container without releasing storage, which lets simulate() keep
// one pooled Simulator per thread: steady-state sweeps run with zero
// container construction per simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "minmach/core/instance.hpp"
#include "minmach/core/schedule.hpp"

namespace minmach {

class Simulator;
struct SimRun;

// Live event counts for one simulation. Preemptions and migrations are
// counted as they happen (a job set aside with work left; a job resuming on
// a different machine than it last ran on), so they are defined
// operationally, not post-hoc. They match Schedule::preemption_count /
// migration_count on the canonicalized trace when no job misses its
// deadline (a miss can end a preempted job that never resumes) and no job
// returns to a machine it ran on before (the trace counts machines, not
// moves).
struct SimStats {
  std::uint64_t releases = 0;
  std::uint64_t completions = 0;
  std::uint64_t misses = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t migrations = 0;
};

class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;

  // A job just became available (its release date is now).
  virtual void on_release(Simulator& sim, JobId job) = 0;
  // A job just received its full processing time.
  virtual void on_complete(Simulator& sim, JobId job);
  // A job's deadline passed with work left; it leaves the system. Policies
  // are expected to avoid this by opening machines -- experiments treat a
  // miss as a hard failure.
  virtual void on_miss(Simulator& sim, JobId job);
  // Set the running job of every machine in use via Simulator::set_running.
  // Called after every batch of events at one time point.
  virtual void dispatch(Simulator& sim) = 0;
  // Earliest future time (> now) at which the policy wants a dispatch even
  // without a job event. Return std::nullopt if none.
  virtual std::optional<Rat> next_wakeup(const Simulator& sim);

  [[nodiscard]] virtual std::string name() const = 0;
};

class Simulator {
 public:
  // speed: every machine processes `speed` units of work per unit of time
  // (Theorem 7's speed augmentation). The policy object must outlive the
  // simulator.
  explicit Simulator(OnlinePolicy& policy, Rat speed = Rat(1));

  // Rewinds to the empty t=0 state for a new run against `policy`. All
  // container storage (SoA arrays, event heaps, trace machines) is kept,
  // so a reset-reuse cycle allocates nothing once warmed up.
  void reset(OnlinePolicy& policy, Rat speed = Rat(1));

  // Queues a job; it is revealed to the policy at job.release, which must
  // be >= now().
  JobId submit(const Job& job);
  void submit_all(const Instance& instance);

  // Advances simulated time to t (>= now), delivering all events.
  void run_until(const Rat& t);
  // Advances until every submitted job is finished or missed.
  void run_to_completion();

  [[nodiscard]] const Rat& now() const { return now_; }
  [[nodiscard]] const Rat& speed() const { return speed_; }
  [[nodiscard]] const Instance& instance() const { return instance_; }
  [[nodiscard]] const Job& job(JobId id) const { return instance_.job(id); }
  [[nodiscard]] std::size_t job_count() const { return instance_.size(); }

  // Work still owed to the job (in processing units, not wall time). For a
  // running job this settles its open stint on the fly.
  [[nodiscard]] Rat remaining(JobId id) const;
  // O(1): whether the job is set to run on some machine.
  [[nodiscard]] bool is_running(JobId id) const {
    return on_machine_[id] != kIdle;
  }
  [[nodiscard]] bool released(JobId id) const {
    return state_[id] != JobState::kPending;
  }
  [[nodiscard]] bool finished(JobId id) const {
    return state_[id] == JobState::kFinished;
  }
  [[nodiscard]] bool missed(JobId id) const {
    return state_[id] == JobState::kMissed;
  }
  [[nodiscard]] const std::vector<JobId>& missed_jobs() const {
    return missed_list_;
  }
  [[nodiscard]] bool any_missed() const { return !missed_list_.empty(); }

  // Released, unfinished, not missed.
  [[nodiscard]] std::vector<JobId> active_jobs() const;
  [[nodiscard]] bool all_done() const;

  // --- dispatch-time interface for policies ---
  // job == kInvalidJob idles the machine. The job must be active.
  void set_running(std::size_t machine, JobId job);
  [[nodiscard]] JobId running_on(std::size_t machine) const;
  [[nodiscard]] std::size_t machine_slots() const { return running_.size(); }

  // Canonicalized copy of the processing trace so far, open stints
  // included up to now().
  [[nodiscard]] Schedule schedule() const;
  [[nodiscard]] std::size_t machines_used() const { return machines_used_; }

  [[nodiscard]] const SimStats& stats() const { return stats_; }
  // Folds the run's event counts into the metrics registry under
  // "sim.<label>.*" (label is usually the policy name). Counters add and
  // machine counts go to a histogram, so sweep aggregation is commutative.
  void publish_metrics(const std::string& label) const;

  [[nodiscard]] OnlinePolicy& policy() { return *policy_; }

 private:
  // Lifecycle of a submitted job. kActive covers released-and-open;
  // kFinished/kMissed imply released, so released() is a != kPending test.
  enum class JobState : std::uint8_t {
    kPending,   // submitted, release event not yet delivered
    kActive,    // released, neither finished nor missed
    kFinished,  // full processing delivered
    kMissed,    // deadline passed with work left
  };

  // Only the pooled-simulator path in simulate() may build an empty
  // Simulator; everyone else must supply a policy up front.
  Simulator() = default;
  friend SimRun simulate_pooled_or_fresh(OnlinePolicy& policy,
                                         const Instance& instance, Rat speed,
                                         bool require_no_miss);

  void deliver_events_at_now();
  [[nodiscard]] Rat next_event_time(const Rat& horizon);
  void advance_to(const Rat& t);
  // Opens a stint of `job` on the idle machine at now_.
  void start_stint(std::size_t machine, JobId job);
  // Closes the machine's open stint at now_: settles the job's remaining
  // work (to zero if `completed`) and writes its one trace slot.
  void end_stint(std::size_t machine, bool completed = false);

  OnlinePolicy* policy_ = nullptr;
  Rat speed_ = Rat(1);
  Rat now_ = Rat(0);

  Instance instance_;
  // Structure-of-arrays job store, indexed by JobId. deadline_ duplicates
  // instance_'s deadlines so the miss/advance loops stay on flat arrays.
  std::vector<Rat> deadline_;
  std::vector<Rat> remaining_;
  std::vector<JobState> state_;
  std::vector<std::size_t> last_machine_;  // kNeverRan until first run
  std::vector<std::size_t> on_machine_;    // running machine, or kIdle
  std::vector<JobId> missed_list_;

  // Min-heaps by (time, job) over pooled vectors; node storage survives
  // reset(). pending_ holds future releases; deadline_heap_ the deadlines
  // of released jobs, lazily pruned (entries for finished/missed jobs are
  // skipped at peek time) so next_event_time() and the miss scan touch
  // only due jobs instead of rescanning the whole instance.
  struct EventNode {
    Rat time;
    JobId job;
  };
  struct EventAfter {
    bool operator()(const EventNode& a, const EventNode& b) const {
      return b.time < a.time || (b.time == a.time && b.job < a.job);
    }
  };
  std::vector<EventNode> pending_;
  std::vector<EventNode> deadline_heap_;
  std::vector<JobId> due_scratch_;  // miss batch, reused every delivery
  void heap_push(std::vector<EventNode>& heap, Rat time, JobId job);
  void heap_pop(std::vector<EventNode>& heap);
  void prune_deadline_heap();

  // Submitted jobs not yet finished or missed; all_done() is O(1).
  std::size_t open_jobs_ = 0;
  // Max deadline over all submitted jobs; run_to_completion()'s horizon.
  Rat max_deadline_ = Rat(0);

  // One stint per machine: running_[m] has run without interruption since
  // since_[m] and completes at finish_[m] = since_[m] + w / speed_, where w
  // is remaining_ of the job at since_[m]. Both are meaningless on an idle
  // machine. trace_ holds the closed stints only.
  std::vector<JobId> running_;
  std::vector<Rat> since_;
  std::vector<Rat> finish_;
  Schedule trace_;
  std::vector<bool> machine_touched_;
  std::size_t machines_used_ = 0;

  SimStats stats_;
  std::vector<JobId> prev_slice_jobs_;  // jobs processed in the last slice
  static constexpr std::size_t kNeverRan = static_cast<std::size_t>(-1);
  static constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
};

// Convenience driver: simulate the full instance against the policy and
// return the resulting schedule (canonicalized). Throws std::runtime_error
// if the policy misses a deadline and require_no_miss is true. Runs on a
// per-thread pooled Simulator (see reset()) unless the call re-enters
// simulate() from a policy callback.
struct SimRun {
  Schedule schedule;
  std::size_t machines_used = 0;
  bool missed = false;
};
[[nodiscard]] SimRun simulate(OnlinePolicy& policy, const Instance& instance,
                              Rat speed = Rat(1), bool require_no_miss = true);

}  // namespace minmach
