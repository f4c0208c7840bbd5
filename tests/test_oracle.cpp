// Differential tests for the scaled OPT oracle: the segment-tree-compressed
// network, warm-started probes, and the sweep load bound must agree exactly
// with their reference implementations (the dense network of
// tests/reference_oracle.hpp, the pair-scan load bound) on every instance
// family, including non-integer-grid (rational mode) and adversarial
// strong-lower-bound instances.
#include "minmach/flow/feasibility.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "minmach/adversary/strong_lb.hpp"
#include "minmach/algos/nonpreemptive.hpp"
#include "minmach/core/contribution.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/rng.hpp"
#include "tests/global_modes.hpp"
#include "tests/reference_oracle.hpp"

namespace minmach {
namespace {

Job mk(std::int64_t r, std::int64_t d, std::int64_t p) {
  return {Rat(r), Rat(d), Rat(p)};
}

// Scales all times by 1/(two ~2^21 primes) so the denominator LCM blows
// past the integer-grid guard and the oracle runs in exact-rational mode.
// OPT is invariant under uniform time scaling.
Instance force_rational_mode(const Instance& in) {
  return affine(in, Rat(0), Rat(1, BigInt(2097143) * BigInt(2097169)));
}

std::vector<Instance> test_instances() {
  std::vector<Instance> out;
  GenConfig small{12, 40, 12, 2};
  GenConfig medium{40, 120, 30, 4};
  for (std::uint64_t seed : {7u, 21u, 99u}) {
    Rng rng(seed);
    out.push_back(gen_general(rng, small));
    out.push_back(gen_general(rng, medium));
    out.push_back(gen_agreeable(rng, medium));
    out.push_back(gen_laminar(rng, medium));
    out.push_back(gen_unit(rng, medium));
    out.push_back(gen_loose(rng, medium, Rat(1, 2)));
    out.push_back(gen_tight(rng, small, Rat(3, 4)));
  }
  // Hand-picked edge cases.
  out.push_back(Instance{});                           // empty
  out.push_back(Instance({mk(0, 1, 1)}));              // single job
  out.push_back(Instance({mk(0, 1, 1), mk(0, 1, 1), mk(0, 1, 1)}));
  out.push_back(Instance({mk(0, 10, 10), mk(2, 5, 3), mk(7, 9, 1)}));
  // Rational mode: scaled copies with huge denominators.
  {
    Rng rng(5);
    out.push_back(force_rational_mode(gen_general(rng, small)));
    out.push_back(force_rational_mode(gen_agreeable(rng, small)));
  }
  // Adversarial: the strong lower bound's released instance.
  {
    FitPolicy policy(FitRule::kFirstFit);
    out.push_back(run_strong_lower_bound(policy, 3).instance);
  }
  return out;
}

TEST(SweepLoadBound, MatchesReferenceOnAllFamilies) {
  for (const Instance& instance : test_instances()) {
    LoadBound fast = load_bound_single_interval(instance);
    LoadBound slow = load_bound_single_interval_reference(instance);
    EXPECT_EQ(fast.machines, slow.machines);
    // The sweep uses the same first-witness-in-(a,b)-scan-order rule.
    EXPECT_EQ(fast.witness.to_string(), slow.witness.to_string());
  }
}

TEST(SweepLoadBound, MalformedFallsBackToReference) {
  // Negative laxity: the sweep precondition fails; both entry points must
  // still agree (the fast path falls back to the reference scan).
  Instance malformed({mk(0, 1, 5), mk(0, 3, 1)});
  ASSERT_FALSE(malformed.well_formed());
  LoadBound fast = load_bound_single_interval(malformed);
  LoadBound slow = load_bound_single_interval_reference(malformed);
  EXPECT_EQ(fast.machines, slow.machines);
  EXPECT_EQ(fast.witness.to_string(), slow.witness.to_string());
}

TEST(Oracle, OptimalMachinesMatchesReference) {
  for (const Instance& instance : test_instances()) {
    const std::int64_t reference = reference_opt(instance);
    for_each_global_mode([&] {
      FeasibilityOracle oracle(instance);
      EXPECT_EQ(oracle.optimal_machines(), reference);
      // And the one-shot entry point.
      EXPECT_EQ(optimal_migratory_machines(instance), reference);
    });
  }
}

TEST(Oracle, FeasibleMatchesReferenceProbeByProbe) {
  // Mixed ascending/descending probe sequences exercise warm starts, cold
  // restarts, and the memo; every verdict must equal the reference's.
  Rng rng(1234);
  GenConfig config{30, 90, 25, 3};
  for (int trial = 0; trial < 4; ++trial) {
    Instance instance = gen_general(rng, config);
    const std::int64_t opt = reference_opt(instance);
    std::vector<std::int64_t> sequence = {opt + 2, 1,       opt,
                                          opt - 1, opt + 1, opt};
    for_each_global_mode([&] {
      FeasibilityOracle oracle(instance);
      for (std::int64_t m : sequence) {
        if (m <= 0) continue;
        EXPECT_EQ(oracle.feasible(m), reference_feasible(instance, m))
            << "m=" << m << " opt=" << opt;
      }
    });
  }
}

TEST(Compression, SharedTreeNodesDoNotLeakSegmentCaps) {
  // Regression for the naive tree compression (job -> canonical nodes with
  // uncapped pass-through): jobs (0,2,2),(0,1,1),(0,1,1) on 2 machines are
  // infeasible (the load of [0,1) is 3), but a network that loses the
  // per-(job,segment) cap admits flow 4 and wrongly reports feasible. The
  // hybrid compression must keep the dense verdict.
  Instance instance({mk(0, 2, 2), mk(0, 1, 1), mk(0, 1, 1)});
  ASSERT_FALSE(reference_feasible(instance, 2));
  ASSERT_EQ(reference_opt(instance), 3);
  for_each_global_mode([&] {
    FeasibilityOracle oracle(instance);
    EXPECT_FALSE(oracle.feasible(2));
    EXPECT_TRUE(oracle.feasible(3));
    EXPECT_EQ(oracle.optimal_machines(), 3);
  });
}

TEST(Compression, TightJobsDegradeToDirectEdges) {
  // Zero-laxity jobs make every in-window segment shorter than p_j, so the
  // compressed network is all direct capped edges; verdicts must still
  // match the dense network.
  Instance instance({mk(0, 4, 4), mk(1, 3, 2), mk(0, 2, 2), mk(2, 4, 2)});
  FeasibilityOracle fast(instance);
  EXPECT_EQ(fast.optimal_machines(), reference_opt(instance));
}

TEST(Oracle, WarmStartSurvivesDescendingProbes) {
  // A descending probe forces a cold restart; later ascending probes must
  // warm-start from the restarted flow and stay correct.
  Rng rng(77);
  Instance instance = gen_general(rng, GenConfig{25, 80, 20, 2});
  std::int64_t opt = optimal_migratory_machines(instance);
  FeasibilityOracle oracle(instance);
  EXPECT_TRUE(oracle.feasible(opt + 3));
  if (opt > 1) EXPECT_FALSE(oracle.feasible(opt - 1));
  EXPECT_TRUE(oracle.feasible(opt));
}

TEST(Oracle, LoadLowerBoundIsCertified) {
  for (const Instance& instance : test_instances()) {
    if (instance.empty() || !instance.well_formed()) continue;
    FeasibilityOracle oracle(instance);
    std::int64_t lb = oracle.load_lower_bound();
    std::int64_t opt = oracle.optimal_machines();
    EXPECT_GE(lb, 1);
    EXPECT_LE(lb, opt);
    // The sweep bound equals the single-interval load bound's value.
    EXPECT_GE(lb, load_bound_single_interval(instance).machines);
  }
}

TEST(Oracle, RationalModeMatchesIntegerMode) {
  // Uniform scaling preserves OPT; the scaled instance runs in rational
  // mode (denominator LCM exceeds the grid guard) and must agree with the
  // integer-grid run of the original.
  Rng rng(31);
  GenConfig config{20, 60, 15, 2};
  for (int trial = 0; trial < 3; ++trial) {
    Instance instance = gen_general(rng, config);
    Instance scaled = force_rational_mode(instance);
    EXPECT_EQ(optimal_migratory_machines(instance),
              optimal_migratory_machines(scaled));
  }
}

}  // namespace
}  // namespace minmach
