#include "minmach/sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "minmach/algos/edf.hpp"
#include "minmach/algos/llf.hpp"
#include "minmach/algos/nonmig.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/rng.hpp"

namespace minmach {
namespace {

Job mk(std::int64_t r, std::int64_t d, std::int64_t p) {
  return {Rat(r), Rat(d), Rat(p)};
}

// Runs every active job on its own machine (machine index == job id).
class OnePerMachinePolicy : public OnlinePolicy {
 public:
  void on_release(Simulator&, JobId) override {}
  void dispatch(Simulator& sim) override {
    for (JobId id = 0; id < sim.job_count(); ++id) {
      if (sim.released(id) && !sim.finished(id) && !sim.missed(id))
        sim.set_running(id, id);
      else if (id < sim.machine_slots() && sim.running_on(id) == id)
        sim.set_running(id, kInvalidJob);
    }
  }
  [[nodiscard]] std::string name() const override { return "OnePerMachine"; }
};

// Never runs anything (to test deadline misses).
class IdlePolicy : public OnlinePolicy {
 public:
  void on_release(Simulator&, JobId) override {}
  void dispatch(Simulator&) override {}
  [[nodiscard]] std::string name() const override { return "Idle"; }
};

TEST(Simulator, RunsJobsToCompletion) {
  OnePerMachinePolicy policy;
  Simulator sim(policy);
  sim.submit(mk(0, 4, 2));
  sim.submit(mk(1, 5, 3));
  sim.run_to_completion();
  EXPECT_TRUE(sim.all_done());
  EXPECT_FALSE(sim.any_missed());
  EXPECT_EQ(sim.machines_used(), 2u);
  Schedule s = sim.schedule();
  auto result = validate(sim.instance(), s);
  EXPECT_TRUE(result.ok) << result.summary();
  // Jobs ran greedily from release.
  EXPECT_EQ(s.slots(0)[0].start, Rat(0));
  EXPECT_EQ(s.slots(0)[0].end, Rat(2));
  EXPECT_EQ(s.slots(1)[0].start, Rat(1));
  EXPECT_EQ(s.slots(1)[0].end, Rat(4));
}

TEST(Simulator, DetectsDeadlineMiss) {
  IdlePolicy policy;
  Simulator sim(policy);
  JobId id = sim.submit(mk(0, 2, 1));
  sim.run_until(Rat(5));
  EXPECT_TRUE(sim.missed(id));
  EXPECT_TRUE(sim.any_missed());
  EXPECT_EQ(sim.missed_jobs().size(), 1u);
  EXPECT_TRUE(sim.all_done());  // missed jobs leave the system
}

TEST(Simulator, ExactCompletionAtDeadlineIsNotAMiss) {
  OnePerMachinePolicy policy;
  Simulator sim(policy);
  JobId id = sim.submit(mk(0, 2, 2));  // zero laxity
  sim.run_to_completion();
  EXPECT_TRUE(sim.finished(id));
  EXPECT_FALSE(sim.any_missed());
}

TEST(Simulator, FutureReleaseAndInterleavedSubmission) {
  OnePerMachinePolicy policy;
  Simulator sim(policy);
  sim.submit(mk(0, 10, 1));
  sim.run_until(Rat(3));
  // Adversary-style: submit mid-run with a future release.
  JobId late = sim.submit(mk(5, 8, 2));
  EXPECT_THROW((void)sim.submit(mk(1, 8, 2)), std::invalid_argument);
  sim.run_until(Rat(4));
  EXPECT_FALSE(sim.released(late));
  sim.run_until(Rat(5));
  EXPECT_TRUE(sim.released(late));
  sim.run_to_completion();
  EXPECT_TRUE(sim.finished(late));
}

TEST(Simulator, RemainingTracksProcessing) {
  OnePerMachinePolicy policy;
  Simulator sim(policy);
  JobId id = sim.submit(mk(0, 10, 4));
  sim.run_until(Rat(3, 2));
  EXPECT_EQ(sim.remaining(id), Rat(5, 2));
}

TEST(Simulator, SpeedScalesProcessing) {
  OnePerMachinePolicy policy;
  Simulator sim(policy, Rat(2));
  JobId id = sim.submit(mk(0, 3, 4));
  sim.run_until(Rat(1));
  EXPECT_EQ(sim.remaining(id), Rat(2));
  sim.run_to_completion();
  EXPECT_TRUE(sim.finished(id));
  ValidateOptions options;
  options.speed = Rat(2);
  EXPECT_TRUE(validate(sim.instance(), sim.schedule(), options).ok);
}

TEST(Simulator, RejectsBadUsage) {
  OnePerMachinePolicy policy;
  Simulator sim(policy);
  EXPECT_THROW((void)sim.submit(mk(0, 1, 2)), std::invalid_argument);  // malformed
  sim.submit(mk(0, 4, 2));
  sim.run_until(Rat(1));
  EXPECT_THROW(sim.run_until(Rat(0)), std::invalid_argument);  // backwards
}

TEST(Simulator, RejectsDispatchOfInactiveJobs) {
  class BadPolicy : public OnlinePolicy {
   public:
    void on_release(Simulator&, JobId) override {}
    void dispatch(Simulator& sim) override {
      if (sim.job_count() > 1) sim.set_running(0, 1);  // job 1 not released
    }
    [[nodiscard]] std::string name() const override { return "Bad"; }
  };
  BadPolicy policy;
  Simulator sim(policy);
  sim.submit(mk(0, 4, 1));
  sim.submit(mk(2, 4, 1));
  EXPECT_THROW(sim.run_until(Rat(1)), std::logic_error);
}

TEST(Simulator, RejectsJobOnTwoMachines) {
  class DoublePolicy : public OnlinePolicy {
   public:
    void on_release(Simulator&, JobId) override {}
    void dispatch(Simulator& sim) override {
      if (sim.job_count() > 0 && sim.released(0) && !sim.finished(0)) {
        sim.set_running(0, 0);
        sim.set_running(1, 0);
      }
    }
    [[nodiscard]] std::string name() const override { return "Double"; }
  };
  DoublePolicy policy;
  Simulator sim(policy);
  sim.submit(mk(0, 4, 1));
  EXPECT_THROW(sim.run_until(Rat(1)), std::logic_error);
}

TEST(Simulator, SimulateHelper) {
  OnePerMachinePolicy policy;
  Instance in({mk(0, 4, 2), mk(0, 4, 2)});
  SimRun run = simulate(policy, in);
  EXPECT_FALSE(run.missed);
  EXPECT_EQ(run.machines_used, 2u);
  EXPECT_TRUE(validate(in, run.schedule).ok);

  IdlePolicy idle;
  EXPECT_THROW((void)simulate(idle, in), std::runtime_error);
  SimRun tolerant = simulate(idle, in, Rat(1), /*require_no_miss=*/false);
  EXPECT_TRUE(tolerant.missed);
}

// --- lazy stints (DESIGN.md §3.2) ---

// Preempts and migrates at random: at every dispatch each running job is
// set aside with probability 1/3, and the waiting jobs go to randomly
// chosen free machines. A wake-up every half time unit adds events in the
// middle of stints.
class RandomShufflePolicy : public OnlinePolicy {
 public:
  RandomShufflePolicy(std::size_t machines, std::uint64_t seed)
      : machines_(machines), rng_(seed) {}
  void on_release(Simulator&, JobId) override {}
  void dispatch(Simulator& sim) override {
    std::vector<std::size_t> free;
    for (std::size_t m = 0; m < machines_; ++m) {
      if (sim.running_on(m) != kInvalidJob && rng_.bernoulli(1.0 / 3.0))
        sim.set_running(m, kInvalidJob);
      if (sim.running_on(m) == kInvalidJob) free.push_back(m);
    }
    std::vector<JobId> waiting;
    for (JobId id : sim.active_jobs())
      if (!sim.is_running(id)) waiting.push_back(id);
    rng_.shuffle(free);
    rng_.shuffle(waiting);
    for (std::size_t i = 0; i < std::min(free.size(), waiting.size()); ++i)
      sim.set_running(free[i], waiting[i]);
  }
  std::optional<Rat> next_wakeup(const Simulator& sim) override {
    if (sim.active_jobs().empty()) return std::nullopt;
    return sim.now() + Rat(1, 2);
  }
  [[nodiscard]] std::string name() const override { return "RandomShuffle"; }

 private:
  std::size_t machines_;
  Rng rng_;
};

// Forwards to another policy and, at every callback, checks the stint
// invariant against the trace: each job's remaining work is its processing
// time less speed times the time it has run in sim.schedule().
class StintAudit : public OnlinePolicy {
 public:
  explicit StintAudit(OnlinePolicy& inner) : inner_(inner) {}
  void on_release(Simulator& sim, JobId job) override {
    audit(sim);
    inner_.on_release(sim, job);
  }
  void on_complete(Simulator& sim, JobId job) override {
    audit(sim);
    EXPECT_TRUE(sim.remaining(job).is_zero());
    inner_.on_complete(sim, job);
  }
  void on_miss(Simulator& sim, JobId job) override {
    audit(sim);
    EXPECT_FALSE(sim.is_running(job));
    EXPECT_TRUE(sim.remaining(job).is_positive());
    inner_.on_miss(sim, job);
  }
  void dispatch(Simulator& sim) override {
    audit(sim);
    inner_.dispatch(sim);
    audit(sim);
  }
  std::optional<Rat> next_wakeup(const Simulator& sim) override {
    audit(sim);
    return inner_.next_wakeup(sim);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  std::size_t audits = 0;

 private:
  void audit(const Simulator& sim) {
    const Schedule trace = sim.schedule();
    for (JobId id = 0; id < sim.job_count(); ++id) {
      const Rat ran = trace.work_of(id);
      EXPECT_EQ(sim.remaining(id), sim.job(id).processing - sim.speed() * ran)
          << inner_.name() << " job " << id << " t=" << sim.now();
      if (!sim.is_running(id)) continue;
      bool found = false;
      for (std::size_t m = 0; m < sim.machine_slots(); ++m)
        found = found || sim.running_on(m) == id;
      EXPECT_TRUE(found) << "is_running without a machine, job " << id;
    }
    ++audits;
  }

  OnlinePolicy& inner_;
};

// Machine changes of each job in time order, from a canonical schedule:
// what SimStats::migrations counts as it happens. Sets `revisits` if some
// job returns to a machine it left.
std::size_t machine_changes(const Schedule& schedule, std::size_t jobs,
                            bool& revisits) {
  std::size_t changes = 0;
  revisits = false;
  for (JobId id = 0; id < jobs; ++id) {
    std::vector<std::pair<Rat, std::size_t>> runs;  // (start, machine)
    for (std::size_t m = 0; m < schedule.machine_count(); ++m)
      for (const Slot& slot : schedule.slots(m))
        if (slot.job == id) runs.emplace_back(slot.start, m);
    std::sort(runs.begin(), runs.end());
    std::vector<std::size_t> visited;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (i > 0 && runs[i].second == runs[i - 1].second) continue;
      if (i > 0) ++changes;
      if (std::find(visited.begin(), visited.end(), runs[i].second) !=
          visited.end())
        revisits = true;
      visited.push_back(runs[i].second);
    }
  }
  return changes;
}

TEST(SimulatorStints, RemainingMatchesTraceUnderEveryPolicy) {
  std::size_t agreeing_runs = 0;  // runs where SimStats must equal the trace
  std::size_t preempting_runs = 0;
  for (const Rat& speed : {Rat(1), Rat(3, 2)}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      Rng rng(seed);
      GenConfig config;
      config.n = 10;
      config.horizon = 16;
      config.max_window = 8;
      config.denominator = 3;
      const Instance instance = gen_general(rng, config);
      std::vector<std::unique_ptr<OnlinePolicy>> policies;
      policies.push_back(std::make_unique<EdfPolicy>(3));
      policies.push_back(std::make_unique<LlfPolicy>(3));
      policies.push_back(std::make_unique<FitPolicy>(FitRule::kFirstFit));
      policies.push_back(std::make_unique<RandomShufflePolicy>(4, seed));
      for (auto& policy : policies) {
        StintAudit audit(*policy);
        Simulator sim(audit, speed);
        sim.submit_all(instance);
        // Stop half-way once so schedule() and remaining() also see open
        // stints from outside a callback.
        sim.run_until(Rat(config.horizon / 2));
        for (JobId id = 0; id < sim.job_count(); ++id)
          EXPECT_EQ(sim.remaining(id),
                    sim.job(id).processing -
                        speed * sim.schedule().work_of(id));
        sim.run_to_completion();
        EXPECT_GT(audit.audits, 0u);

        const Schedule schedule = sim.schedule();
        ValidateOptions options;
        options.speed = speed;
        options.allow_unfinished = sim.any_missed();
        EXPECT_TRUE(validate(sim.instance(), schedule, options).ok)
            << policy->name();
        for (JobId id = 0; id < sim.job_count(); ++id) {
          EXPECT_FALSE(sim.is_running(id));
          if (sim.finished(id)) {
            EXPECT_TRUE(sim.remaining(id).is_zero());
          }
        }
        const SimStats& stats = sim.stats();
        bool revisits = false;
        EXPECT_EQ(stats.migrations,
                  machine_changes(schedule, sim.job_count(), revisits))
            << policy->name() << " seed " << seed;
        EXPECT_GE(stats.preemptions, schedule.preemption_count());
        if (!sim.any_missed() && !revisits) {
          EXPECT_EQ(stats.preemptions, schedule.preemption_count())
              << policy->name() << " seed " << seed;
          EXPECT_EQ(stats.migrations, schedule.migration_count())
              << policy->name() << " seed " << seed;
          ++agreeing_runs;
          if (stats.preemptions > 0) ++preempting_runs;
        }
      }
    }
  }
  // The equality branch really ran, on schedules with preemptions.
  EXPECT_GT(agreeing_runs, 10u);
  EXPECT_GT(preempting_runs, 0u);
}

TEST(SimulatorStints, VacateAndRedispatchAtOneInstantMergesSlots) {
  // At every dispatch, idles machine 0 and puts job 0 straight back; a
  // wake-up every time unit makes that happen mid-run.
  class FlickerPolicy : public OnlinePolicy {
   public:
    void on_release(Simulator&, JobId) override {}
    void dispatch(Simulator& sim) override {
      if (sim.job_count() == 0 || sim.finished(0)) return;
      sim.set_running(0, kInvalidJob);
      EXPECT_FALSE(sim.is_running(0));
      sim.set_running(0, 0);
      EXPECT_TRUE(sim.is_running(0));
    }
    std::optional<Rat> next_wakeup(const Simulator& sim) override {
      return sim.now() + Rat(1);
    }
    [[nodiscard]] std::string name() const override { return "Flicker"; }
  };
  FlickerPolicy policy;
  Simulator sim(policy, Rat(3, 2));
  JobId id = sim.submit(mk(0, 10, 6));
  sim.run_until(Rat(5, 2));
  EXPECT_EQ(sim.remaining(id), Rat(9, 4));
  Schedule partial = sim.schedule();
  ASSERT_EQ(partial.slots(0).size(), 1u);
  EXPECT_EQ(partial.slots(0)[0], (Slot{Rat(0), Rat(5, 2), id}));
  sim.run_to_completion();
  EXPECT_TRUE(sim.finished(id));
  Schedule done = sim.schedule();
  ASSERT_EQ(done.machine_count(), 1u);
  ASSERT_EQ(done.slots(0).size(), 1u);
  EXPECT_EQ(done.slots(0)[0], (Slot{Rat(0), Rat(4), id}));
  EXPECT_EQ(sim.stats().preemptions, 0u);
  EXPECT_EQ(sim.stats().migrations, 0u);
  EXPECT_GT(sim.stats().dispatches, 4u);
}

}  // namespace
}  // namespace minmach
