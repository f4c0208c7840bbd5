#include "minmach/algos/nonmig.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "minmach/adversary/strong_lb.hpp"
#include "minmach/algos/laminar.hpp"
#include "minmach/algos/single_machine.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/rng.hpp"

namespace minmach {
namespace {

Job mk(std::int64_t r, std::int64_t d, std::int64_t p) {
  return {Rat(r), Rat(d), Rat(p)};
}

TEST(FitPolicy, FirstFitPacksSequentially) {
  Instance in({mk(0, 2, 1), mk(0, 2, 1), mk(0, 2, 1)});
  FitPolicy policy(FitRule::kFirstFit);
  SimRun run = simulate(policy, in);
  EXPECT_FALSE(run.missed);
  // Each machine can hold two of the three unit jobs; first fit opens 2.
  EXPECT_EQ(run.machines_used, 2u);
  ValidateOptions options;
  options.require_non_migratory = true;
  auto result = validate(in, run.schedule, options);
  EXPECT_TRUE(result.ok) << result.summary();
}

TEST(FitPolicy, OpensMachineWhenNothingFits) {
  Instance in({mk(0, 1, 1), mk(0, 1, 1), mk(0, 1, 1)});
  FitPolicy policy(FitRule::kFirstFit);
  SimRun run = simulate(policy, in);
  EXPECT_FALSE(run.missed);
  EXPECT_EQ(run.machines_used, 3u);  // zero laxity jobs cannot share
}

TEST(FitPolicy, CommitmentIsRemembered) {
  Instance in({mk(0, 4, 2), mk(1, 5, 2)});
  FitPolicy policy(FitRule::kFirstFit);
  Simulator sim(policy);
  sim.submit_all(in);
  sim.run_until(Rat(1));
  EXPECT_TRUE(policy.machine_of(0).has_value());
  EXPECT_TRUE(policy.machine_of(1).has_value());
  sim.run_to_completion();
  // Committed machine matches where the job actually ran.
  Schedule s = sim.schedule();
  for (JobId id = 0; id < in.size(); ++id) {
    auto machines = s.machines_of(id);
    ASSERT_EQ(machines.size(), 1u);
    EXPECT_EQ(machines[0], *policy.machine_of(id));
  }
}

struct RuleCase {
  FitRule rule;
  std::uint64_t seed;
};

class AllFitRules : public ::testing::TestWithParam<RuleCase> {};

TEST_P(AllFitRules, NeverMissesAndStaysNonMigratory) {
  // Exact admission + per-machine EDF implies no fit policy ever misses a
  // deadline, on any instance.
  Rng rng(GetParam().seed);
  GenConfig config;
  config.n = 40;
  for (int iter = 0; iter < 3; ++iter) {
    Instance in = gen_general(rng, config);
    FitPolicy policy(GetParam().rule, /*seed=*/GetParam().seed);
    SimRun run = simulate(policy, in);
    EXPECT_FALSE(run.missed);
    ValidateOptions options;
    options.require_non_migratory = true;
    auto result = validate(in, run.schedule, options);
    EXPECT_TRUE(result.ok) << policy.name() << "\n" << result.summary();
    // Sanity: cannot beat the migratory optimum.
    EXPECT_GE(run.machines_used, static_cast<std::size_t>(
                                     optimal_migratory_machines(in)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rules, AllFitRules,
    ::testing::Values(RuleCase{FitRule::kFirstFit, 1},
                      RuleCase{FitRule::kBestFit, 2},
                      RuleCase{FitRule::kWorstFit, 3},
                      RuleCase{FitRule::kRandomFit, 4},
                      RuleCase{FitRule::kNextFit, 5}),
    [](const ::testing::TestParamInfo<RuleCase>& info) {
      return fit_rule_name(info.param.rule);
    });

TEST(FitPolicy, NamesAreDistinct) {
  EXPECT_STREQ(fit_rule_name(FitRule::kFirstFit), "FirstFit");
  EXPECT_STREQ(fit_rule_name(FitRule::kBestFit), "BestFit");
  EXPECT_STREQ(fit_rule_name(FitRule::kWorstFit), "WorstFit");
  EXPECT_STREQ(fit_rule_name(FitRule::kRandomFit), "RandomFit");
  EXPECT_STREQ(fit_rule_name(FitRule::kNextFit), "NextFit");
  FitPolicy policy(FitRule::kBestFit);
  EXPECT_EQ(policy.name(), "NonMig-BestFit");
}

// Differential check of the incremental slack profiles: before every
// admission, each open machine's machine_can_take must agree with a
// from-scratch EDF replay (edf_feasible_single_machine) on commitments
// rebuilt from simulator state alone, and machine_load with the summed
// remaining work.
template <class Base>
class ProfileAudit : public Base {
 public:
  using Base::Base;

  std::size_t probes = 0;      // machine_can_take comparisons made
  std::size_t rejections = 0;  // of which the reference said "infeasible"

 protected:
  std::size_t choose_machine(Simulator& sim, JobId job) override {
    audit(sim, job);
    return Base::choose_machine(sim, job);
  }

 private:
  void audit(const Simulator& sim, JobId job) {
    const std::size_t machines = this->open_machines();
    std::vector<std::vector<MachineCommitment>> commitments(machines);
    std::vector<Rat> loads(machines, Rat(0));
    for (JobId id = 0; id < sim.job_count(); ++id) {
      if (id == job || !sim.released(id) || sim.finished(id) ||
          sim.missed(id))
        continue;
      auto machine = this->machine_of(id);
      ASSERT_TRUE(machine.has_value()) << "active job " << id;
      ASSERT_LT(*machine, machines) << "active job " << id;
      commitments[*machine].push_back(
          {sim.job(id).release, sim.job(id).deadline, sim.remaining(id)});
      loads[*machine] += sim.remaining(id);
    }
    for (std::size_t m = 0; m < machines; ++m) {
      commitments[m].push_back(
          {sim.job(job).release, sim.job(job).deadline, sim.remaining(job)});
      const bool expected = edf_feasible_single_machine(
          std::move(commitments[m]), sim.now(), sim.speed());
      EXPECT_EQ(this->machine_can_take(sim, m, job), expected)
          << "job " << job << " machine " << m << " t=" << sim.now();
      EXPECT_EQ(this->machine_load(sim, m), loads[m])
          << "machine " << m << " t=" << sim.now();
      ++probes;
      if (!expected) ++rejections;
    }
  }
};

using AuditedFit = ProfileAudit<FitPolicy>;

// Forwards every callback to a non-migratory policy and checks after each
// dispatch that every machine runs its (deadline, JobId)-minimal active job.
class DispatchAudit : public OnlinePolicy {
 public:
  explicit DispatchAudit(NonMigratoryPolicy& inner) : inner_(inner) {}

  void on_release(Simulator& sim, JobId job) override {
    inner_.on_release(sim, job);
  }
  void on_complete(Simulator& sim, JobId job) override {
    inner_.on_complete(sim, job);
  }
  void on_miss(Simulator& sim, JobId job) override {
    inner_.on_miss(sim, job);
  }
  std::optional<Rat> next_wakeup(const Simulator& sim) override {
    return inner_.next_wakeup(sim);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  void dispatch(Simulator& sim) override {
    inner_.dispatch(sim);
    std::vector<JobId> expected(inner_.open_machines(), kInvalidJob);
    for (JobId id = 0; id < sim.job_count(); ++id) {
      if (!sim.released(id) || sim.finished(id) || sim.missed(id)) continue;
      JobId& best = expected[*inner_.machine_of(id)];
      if (best == kInvalidJob || sim.job(id).deadline < sim.job(best).deadline)
        best = id;  // ids ascend, so ties keep the smaller one
    }
    for (std::size_t m = 0; m < expected.size(); ++m)
      EXPECT_EQ(sim.running_on(m), expected[m])
          << "machine " << m << " t=" << sim.now();
  }

 private:
  NonMigratoryPolicy& inner_;
};

struct Family {
  const char* name;
  std::function<Instance(Rng&, const GenConfig&)> make;
};

std::vector<Family> all_families() {
  const Rat half(1, 2);
  return {
      {"general", gen_general},
      {"agreeable", gen_agreeable},
      {"laminar", gen_laminar},
      {"loose", [half](Rng& r, const GenConfig& c) { return gen_loose(r, c, half); }},
      {"tight", [half](Rng& r, const GenConfig& c) { return gen_tight(r, c, half); }},
      {"agreeable_tight",
       [half](Rng& r, const GenConfig& c) {
         return gen_agreeable_tight(r, c, half);
       }},
      {"laminar_tight",
       [half](Rng& r, const GenConfig& c) {
         return gen_laminar_tight(r, c, half);
       }},
      {"unit", gen_unit},
  };
}

class SlackProfileDiff : public ::testing::TestWithParam<FitRule> {};

TEST_P(SlackProfileDiff, MatchesEdfReplayOnEveryFamily) {
  std::size_t probes = 0;
  std::size_t rejections = 0;
  std::uint64_t seed = 100;
  for (const Family& family : all_families()) {
    for (const Rat& speed : {Rat(1), Rat(3, 2)}) {
      for (std::int64_t denominator : {1, 4}) {  // integer, rational grid
        Rng rng(++seed);
        GenConfig config;
        config.n = 30;
        config.horizon = 25;
        config.max_window = 15;
        config.denominator = denominator;
        Instance in = family.make(rng, config);
        AuditedFit policy(GetParam(), seed);
        DispatchAudit audited(policy);
        SimRun run = simulate(audited, in, speed, /*require_no_miss=*/false);
        EXPECT_FALSE(run.missed) << family.name << " speed " << speed;
        probes += policy.probes;
        rejections += policy.rejections;
      }
    }
  }
  // Both verdicts must have been exercised.
  EXPECT_GT(rejections, 0u);
  EXPECT_LT(rejections, probes);
}

TEST_P(SlackProfileDiff, MatchesEdfReplayInStrongLbGames) {
  for (int levels = 2; levels <= 6; ++levels) {
    AuditedFit policy(GetParam(), /*seed=*/987);
    DispatchAudit audited(policy);
    StrongLbResult result = run_strong_lower_bound(
        audited, [&policy](JobId id) { return policy.machine_of(id); },
        levels);
    EXPECT_FALSE(result.opponent_missed_deadline);
    EXPECT_GT(policy.rejections, 0u) << "k=" << levels;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rules, SlackProfileDiff,
    ::testing::Values(FitRule::kFirstFit, FitRule::kBestFit,
                      FitRule::kWorstFit, FitRule::kRandomFit,
                      FitRule::kNextFit),
    [](const ::testing::TestParamInfo<FitRule>& info) {
      return fit_rule_name(info.param);
    });

TEST(SlackProfile, MissesReturnLeftoverWorkToLaterSlacks) {
  // The greedy laminar rule admits without an EDF test, so on general
  // instances it overloads machines: jobs miss with work left, and the
  // profile must drop them and hand their leftover back.
  std::size_t failures = 0;
  std::size_t misses = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    GenConfig config;
    config.n = 40;
    config.horizon = 20;
    config.max_window = 15;
    Instance in = gen_general(rng, config);
    ProfileAudit<GreedyLaminarPolicy> policy(/*machine_budget=*/3);
    DispatchAudit audited(policy);
    Simulator sim(audited);
    sim.submit_all(in);
    sim.run_to_completion();
    failures += policy.assignment_failures();
    misses += sim.missed_jobs().size();
    for (JobId id : sim.missed_jobs()) EXPECT_TRUE(sim.remaining(id).is_positive());
  }
  EXPECT_GT(failures, 0u);
  EXPECT_GT(misses, 0u);
}

}  // namespace
}  // namespace minmach
