// Seeded randomized differential test of the migratory OPT oracle. Random
// instances come from every gen/ family with random parameters, on the
// integer grid and on a forced rational grid, under random SIMD dispatch
// and bound-tier settings. They are driven through random feasible(m)
// probe orders and random insert_job/remove_job edit streams. Every
// verdict and OPT is checked against tests/reference_oracle.hpp, every
// OPT schedule through core/validate, and the certified sandwich for
// containment of the reference OPT at each of the oracle's entry points.
// The budget is fixed (kCases cases drawn from kSeed by util::Rng), so
// every preset runs the same cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "minmach/core/bounds.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/rng.hpp"
#include "tests/global_modes.hpp"
#include "tests/reference_oracle.hpp"

namespace minmach {
namespace {

constexpr std::uint64_t kSeed = 20261018;
constexpr int kCases = 96;
constexpr int kEdits = 12;

// Rescales time by 1/(two ~2^21 primes) after a random shift: the
// denominator LCM then exceeds the integer-grid guard and the oracle runs
// on exact rationals. OPT is invariant under the map.
Instance to_rational_grid(const Instance& instance, const Rat& offset) {
  return affine(instance, offset, Rat(1, BigInt(2097143) * BigInt(2097169)));
}

struct Case {
  Instance instance;
  bool rational = false;
  Rat offset;
  GenConfig config;
};

Instance draw_family(Rng& rng, const GenConfig& config) {
  const Rat alpha(rng.uniform_int(1, 3), 4);
  switch (rng.uniform_int(0, 7)) {
    case 0: return gen_general(rng, config);
    case 1: return gen_agreeable(rng, config);
    case 2: return gen_laminar(rng, config);
    case 3: return gen_loose(rng, config, alpha);
    case 4: return gen_tight(rng, config, alpha);
    case 5: return gen_agreeable_tight(rng, config, alpha);
    case 6: return gen_laminar_tight(rng, config, alpha);
    default: return gen_unit(rng, config);
  }
}

Case draw_case(Rng& rng) {
  Case out;
  out.config.n = static_cast<std::size_t>(rng.uniform_int(1, 14));
  out.config.horizon = rng.uniform_int(4, 60);
  out.config.max_window = rng.uniform_int(1, 24);
  out.config.denominator = rng.uniform_int(1, 4);
  out.instance = draw_family(rng, out.config);
  out.rational = rng.bernoulli(0.3);
  out.offset = Rat(rng.uniform_int(-20, 20), 7);
  if (out.rational) out.instance = to_rational_grid(out.instance, out.offset);
  return out;
}

// Sets SIMD dispatch and the bound-tier gate at random for one case; the
// caller's GlobalModesGuard restores both.
void set_random_global_modes(Rng& rng) {
  util::simd::set_mode(rng.bernoulli(0.5) ? util::simd::Mode::kAuto
                                          : util::simd::Mode::kScalar);
  set_bounds_tier_enabled(rng.bernoulli(0.5));
}

// OPT equals the reference's, and the OPT schedule passes the validator.
void expect_opt_and_schedule(FeasibilityOracle& oracle,
                             const Instance& instance) {
  const std::int64_t opt = reference_opt(instance);
  ASSERT_EQ(oracle.optimal_machines(), opt);
  if (opt == 0) return;
  const ValidationResult audit =
      validate(instance, optimal_migratory_schedule(instance, opt));
  EXPECT_TRUE(audit.ok) << audit.summary();
}

// Probes up to `count` machine counts from [1, n + 1] in random order and
// checks each verdict against the reference.
void expect_random_probes(Rng& rng, FeasibilityOracle& oracle,
                          const Instance& instance, int count) {
  std::vector<std::int64_t> order;
  for (std::int64_t m = 1; m <= static_cast<std::int64_t>(instance.size()) + 1;
       ++m)
    order.push_back(m);
  rng.shuffle(order);
  if (order.size() > static_cast<std::size_t>(count))
    order.resize(static_cast<std::size_t>(count));
  for (std::int64_t m : order)
    ASSERT_EQ(oracle.feasible(m), reference_feasible(instance, m))
        << "m=" << m << " n=" << instance.size();
}

TEST(RandomizedDifferential, ProbeOrdersMatchReference) {
  Rng rng(kSeed);
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const Case drawn = draw_case(rng);
    GlobalModesGuard guard;
    set_random_global_modes(rng);
    FeasibilityOracle oracle(drawn.instance);
    expect_random_probes(rng, oracle, drawn.instance, 6);
    expect_opt_and_schedule(oracle, drawn.instance);
  }
}

TEST(RandomizedDifferential, EditStreamsMatchReference) {
  Rng rng(kSeed + 1);
  for (int c = 0; c < kCases / 2; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    Case drawn = draw_case(rng);
    if (rng.bernoulli(0.15)) drawn.instance = Instance{};
    GlobalModesGuard guard;
    set_random_global_modes(rng);
    FeasibilityOracle oracle(drawn.instance);
    std::vector<std::pair<JobId, Job>> live;
    for (JobId id = 0; id < drawn.instance.size(); ++id)
      live.emplace_back(id, drawn.instance.job(id));
    // Most inserts stay on the case's grid; the rest land on the other
    // one, which demotes an integer-grid oracle to exact rationals.
    GenConfig one = drawn.config;
    one.n = 1;
    for (int e = 0; e < kEdits; ++e) {
      if (live.empty() || rng.bernoulli(0.6)) {
        Job job = gen_general(rng, one).job(0);
        if (drawn.rational != rng.bernoulli(0.2))
          job = to_rational_grid(Instance({job}), drawn.offset).job(0);
        live.emplace_back(oracle.insert_job(job), job);
      } else {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        oracle.remove_job(live[pick].first);
        live[pick] = live.back();
        live.pop_back();
      }
      std::vector<Job> jobs;
      for (const auto& entry : live) jobs.push_back(entry.second);
      const Instance current(std::move(jobs));
      ASSERT_EQ(oracle.live_jobs(), static_cast<std::int64_t>(live.size()));
      expect_random_probes(rng, oracle, current, 3);
      expect_opt_and_schedule(oracle, current);
    }
  }
}

TEST(RandomizedDifferential, SandwichContainsReferenceOptAtEveryEntryPoint) {
  // The three ways into the oracle: the Instance constructor, the
  // JobColumns constructor (the instance scaled onto its denominator-lcm
  // grid, OPT-invariant) and insert_job into an empty oracle. Each must
  // certify lo <= OPT <= hi and answer OPT exactly.
  Rng rng(kSeed + 2);
  for (int c = 0; c < kCases / 2; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const Case drawn = draw_case(rng);
    GlobalModesGuard guard;
    set_random_global_modes(rng);
    const std::int64_t opt = reference_opt(drawn.instance);
    auto expect_contains = [opt](FeasibilityOracle& oracle,
                                 const char* entry) {
      const BoundSandwich sandwich = oracle.bound_sandwich();
      EXPECT_LE(sandwich.lo, opt) << entry;
      EXPECT_GE(sandwich.hi, opt) << entry;
      EXPECT_EQ(oracle.optimal_machines(), opt) << entry;
    };

    FeasibilityOracle from_instance(drawn.instance);
    expect_contains(from_instance, "Instance");

    const Instance scaled = affine(
        drawn.instance, Rat(0), Rat(drawn.instance.denominator_lcm(), 1));
    std::vector<std::int64_t> release, deadline, processing;
    for (const Job& job : scaled.jobs()) {
      ASSERT_TRUE(job.release.num().is_small() &&
                  job.deadline.num().is_small() &&
                  job.processing.num().is_small());
      release.push_back(job.release.num().small_value());
      deadline.push_back(job.deadline.num().small_value());
      processing.push_back(job.processing.num().small_value());
    }
    FeasibilityOracle from_columns(JobColumns{
        release.data(), deadline.data(), processing.data(), release.size()});
    expect_contains(from_columns, "JobColumns");

    FeasibilityOracle from_inserts{Instance{}};
    for (const Job& job : drawn.instance.jobs())
      (void)from_inserts.insert_job(job);
    expect_contains(from_inserts, "insert_job");
  }
}

}  // namespace
}  // namespace minmach
