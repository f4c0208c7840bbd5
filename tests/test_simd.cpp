// Differential tests for the SIMD/bit-parallel kernel layer (DESIGN.md
// §12): every kernel must be BYTE-IDENTICAL across dispatch modes -- the
// AVX2 lanes, the scalar twin, and (where one exists) the generic seed
// path -- on random inputs, INT64-boundary values, and adversarial
// overflow-spill cases. Runs under the sanitize preset too: the AVX2
// translation units are plain C++ to ASan/UBSan, so lane logic gets swept.
//
// On a machine without AVX2 (or a MINMACH_SIMD=scalar build) the
// avx2-vs-scalar comparisons skip; the scalar-vs-generic ones still run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "minmach/core/instance.hpp"
#include "minmach/core/load_sweep.hpp"
#include "minmach/core/load_sweep_simd.hpp"
#include "minmach/flow/dinic.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/rational.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/simd.hpp"
#include "tests/reference_oracle.hpp"

namespace minmach {
namespace {

constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();

bool have_avx2() { return util::simd::supported(); }

// Restores the global dispatch mode on scope exit so test order never
// leaks a forced mode into another test.
struct ModeGuard {
  util::simd::Mode saved = util::simd::mode();
  ~ModeGuard() { util::simd::set_mode(saved); }
};

// ---------------------------------------------------------------- plumbing

TEST(SimdDispatch, ParseMode) {
  util::simd::Mode mode;
  EXPECT_TRUE(util::simd::parse_mode("auto", &mode));
  EXPECT_EQ(mode, util::simd::Mode::kAuto);
  EXPECT_TRUE(util::simd::parse_mode("avx2", &mode));
  EXPECT_EQ(mode, util::simd::Mode::kAvx2);
  EXPECT_TRUE(util::simd::parse_mode("scalar", &mode));
  EXPECT_EQ(mode, util::simd::Mode::kScalar);
  EXPECT_FALSE(util::simd::parse_mode("", &mode));
  EXPECT_FALSE(util::simd::parse_mode("AVX2", &mode));
  EXPECT_FALSE(util::simd::parse_mode("on", &mode));
}

TEST(SimdDispatch, ScalarModeDeactivates) {
  ModeGuard guard;
  util::simd::set_mode(util::simd::Mode::kScalar);
  EXPECT_FALSE(util::simd::active());
  util::simd::set_mode(util::simd::Mode::kAuto);
  EXPECT_EQ(util::simd::active(), util::simd::supported());
}

// ------------------------------------------------------------ util kernels

TEST(SimdKernels, MinMaxI64Differential) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable";
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 70));
    std::vector<std::int64_t> v(n);
    for (auto& x : v) x = rng.uniform_int(kI64Min + 1, kI64Max - 1);
    if (trial % 5 == 0) v[0] = kI64Min;  // boundary lanes
    if (trial % 7 == 0) v[n - 1] = kI64Max;
    std::int64_t lo_s, hi_s, lo_v, hi_v;
    util::simd::minmax_i64(v.data(), n, &lo_s, &hi_s, /*avx2=*/false);
    util::simd::minmax_i64(v.data(), n, &lo_v, &hi_v, /*avx2=*/true);
    EXPECT_EQ(lo_s, lo_v);
    EXPECT_EQ(hi_s, hi_v);
    EXPECT_EQ(lo_s, *std::min_element(v.begin(), v.end()));
    EXPECT_EQ(hi_s, *std::max_element(v.begin(), v.end()));
  }
}

TEST(SimdKernels, SumI64DifferentialAndOverflow) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable";
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 70));
    std::vector<std::int64_t> v(n);
    for (auto& x : v) x = rng.uniform_int(-1000000000, 1000000000);
    std::int64_t sum_s = 0, sum_v = 0;
    ASSERT_TRUE(util::simd::sum_i64(v.data(), n, &sum_s, /*avx2=*/false));
    ASSERT_TRUE(util::simd::sum_i64(v.data(), n, &sum_v, /*avx2=*/true));
    EXPECT_EQ(sum_s, sum_v);
  }
  // Overflowing input: both paths must decline rather than wrap.
  std::vector<std::int64_t> big(3, kI64Max / 2 + 1);
  std::int64_t out = 0;
  EXPECT_FALSE(util::simd::sum_i64(big.data(), big.size(), &out, false));
  EXPECT_FALSE(util::simd::sum_i64(big.data(), big.size(), &out, true));
}

TEST(SimdKernels, Rat31LessDifferential) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable";
  constexpr std::int64_t kMax31 = (std::int64_t{1} << 31) - 1;
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    std::vector<std::int64_t> an(n), ad(n), bn(n), bd(n);
    for (std::size_t i = 0; i < n; ++i) {
      an[i] = rng.uniform_int(-kMax31, kMax31);
      bn[i] = rng.uniform_int(-kMax31, kMax31);
      ad[i] = rng.uniform_int(1, kMax31);
      bd[i] = rng.uniform_int(1, kMax31);
    }
    if (trial % 3 == 0) {  // equal-value lanes: strict < must say false
      an[0] = bn[0] = 21;
      ad[0] = bd[0] = 2;
    }
    std::vector<unsigned char> out_s(n), out_v(n);
    util::simd::rat31_less(an.data(), ad.data(), bn.data(), bd.data(), n,
                           out_s.data(), /*avx2=*/false);
    util::simd::rat31_less(an.data(), ad.data(), bn.data(), bd.data(), n,
                           out_v.data(), /*avx2=*/true);
    EXPECT_EQ(out_s, out_v);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(out_s[i] != 0, Rat(an[i], ad[i]) < Rat(bn[i], bd[i]))
          << an[i] << "/" << ad[i] << " vs " << bn[i] << "/" << bd[i];
  }
}

// ------------------------------------------------------------- load sweep

struct IntInstance {
  std::vector<std::int64_t> release, deadline, processing, points;

  void add(std::int64_t r, std::int64_t d, std::int64_t p) {
    release.push_back(r);
    deadline.push_back(d);
    processing.push_back(p);
  }
  void finalize_points() {
    points = release;
    points.insert(points.end(), deadline.begin(), deadline.end());
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
  }
};

SweepWitness sweep_generic(const IntInstance& in, std::size_t stride) {
  std::vector<__int128> r(in.release.begin(), in.release.end());
  std::vector<__int128> d(in.deadline.begin(), in.deadline.end());
  std::vector<__int128> p(in.processing.begin(), in.processing.end());
  std::vector<__int128> pts(in.points.begin(), in.points.end());
  return sweep_load_bound<__int128>(
      r, d, p, pts,
      [](const __int128& c, const __int128& len) {
        return static_cast<std::int64_t>((c + len - 1) / len);
      },
      stride);
}

void expect_sweeps_match(const IntInstance& in, std::size_t stride) {
  const SweepWitness generic = sweep_generic(in, stride);
  const SweepWitness scalar =
      sweep_load_bound_i64(in.release, in.deadline, in.processing, in.points,
                           stride, /*use_avx2=*/false);
  EXPECT_EQ(scalar.machines, generic.machines);
  EXPECT_EQ(scalar.lo, generic.lo);
  EXPECT_EQ(scalar.hi, generic.hi);
  if (have_avx2()) {
    const SweepWitness simd =
        sweep_load_bound_i64(in.release, in.deadline, in.processing,
                             in.points, stride, /*use_avx2=*/true);
    EXPECT_EQ(simd.machines, generic.machines);
    EXPECT_EQ(simd.lo, generic.lo);
    EXPECT_EQ(simd.hi, generic.hi);
  }
}

IntInstance random_instance(Rng& rng, std::size_t jobs, std::int64_t span) {
  IntInstance in;
  for (std::size_t j = 0; j < jobs; ++j) {
    const std::int64_t r = rng.uniform_int(0, span - 1);
    const std::int64_t d = r + rng.uniform_int(1, span - r);
    const std::int64_t p = rng.uniform_int(1, d - r);
    in.add(r, d, p);
  }
  in.finalize_points();
  return in;
}

TEST(SweepSimd, RandomDifferential) {
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t jobs = static_cast<std::size_t>(rng.uniform_int(1, 60));
    const std::int64_t span = rng.uniform_int(2, 200);
    IntInstance in = random_instance(rng, jobs, span);
    for (std::size_t stride : {std::size_t{1}, std::size_t{3},
                               std::size_t{256}})
      expect_sweeps_match(in, stride);
  }
}

TEST(SweepSimd, DenseCollidingEndpoints) {
  // Many jobs sharing event points: admission batches aggregate several
  // jobs between grid points, the case the stream compaction must get
  // exactly right.
  Rng rng(22);
  for (int trial = 0; trial < 20; ++trial) {
    IntInstance in;
    const std::size_t jobs = 40;
    for (std::size_t j = 0; j < jobs; ++j) {
      const std::int64_t r = rng.uniform_int(0, 4);
      const std::int64_t d = r + rng.uniform_int(1, 5);
      in.add(r, d, rng.uniform_int(1, d - r));
    }
    in.finalize_points();
    expect_sweeps_match(in, 1);
  }
}

TEST(SweepSimd, GuardBoundaryValues) {
  // Points at the +-2^30 guard boundary: still inside the int64 kernel's
  // contract, so all paths must agree (and not overflow).
  constexpr std::int64_t kB = std::int64_t{1} << 30;
  IntInstance in;
  in.add(-kB, kB, (std::int64_t{1} << 29) - 7);
  in.add(-kB, -kB + 100, 60);
  in.add(kB - 50, kB, 49);
  in.add(-3, 5, 8);
  in.finalize_points();
  expect_sweeps_match(in, 1);
}

TEST(SweepSimd, OverflowSpillsToGeneric) {
  // Beyond the kernel guard (|points| > 2^30): sweep_load_bound_i64 must
  // spill to the generic __int128 sweep and still return its exact result.
  constexpr std::int64_t kBig = std::int64_t{1} << 40;
  IntInstance in;
  in.add(-kBig, kBig, kBig);
  in.add(0, kBig, kBig / 2);
  in.add(-kBig, 0, 3);
  in.finalize_points();
  expect_sweeps_match(in, 1);

  // Total work beyond 2^29 with small points: the other guard axis.
  IntInstance heavy;
  heavy.add(0, 10, 9);
  heavy.processing[0] = (std::int64_t{1} << 29);
  heavy.deadline[0] = (std::int64_t{1} << 29) + 1;
  heavy.add(1, 7, 3);
  heavy.finalize_points();
  expect_sweeps_match(heavy, 1);
}

TEST(SweepSimd, EmptyAndDegenerate) {
  IntInstance empty;
  empty.finalize_points();
  expect_sweeps_match(empty, 1);

  IntInstance single;
  single.add(0, 4, 4);  // zero laxity
  single.finalize_points();
  expect_sweeps_match(single, 1);
  expect_sweeps_match(single, 9);  // stride beyond the endpoint count
}

// ------------------------------------------------------------------ Dinic

TEST(DinicSimd, BitmapLevelsRouteIdenticalFlow) {
  Rng rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t layers = static_cast<std::size_t>(rng.uniform_int(2, 5));
    const std::size_t width = static_cast<std::size_t>(rng.uniform_int(2, 9));
    const std::size_t nodes = layers * width + 2;
    const std::size_t source = nodes - 2, sink = nodes - 1;
    // Build the SAME edges into two graphs, one per level kernel.
    Dinic<long long> scalar(nodes), bitmap(nodes);
    std::vector<std::size_t> handles_s, handles_b;
    auto add = [&](std::size_t from, std::size_t to, long long cap) {
      handles_s.push_back(scalar.add_edge(from, to, cap));
      handles_b.push_back(bitmap.add_edge(from, to, cap));
    };
    for (std::size_t i = 0; i < width; ++i)
      add(source, i, rng.uniform_int(1, 20));
    for (std::size_t layer = 0; layer + 1 < layers; ++layer)
      for (std::size_t i = 0; i < width; ++i)
        for (std::size_t j = 0; j < width; ++j)
          if (rng.uniform_int(0, 2) != 0)
            add(layer * width + i, (layer + 1) * width + j,
                rng.uniform_int(1, 9));
    for (std::size_t i = 0; i < width; ++i)
      add((layers - 1) * width + i, sink, rng.uniform_int(1, 20));

    scalar.set_level_kernel(0);
    bitmap.set_level_kernel(1);
    const long long flow_s = scalar.max_flow(source, sink);
    const long long flow_b = bitmap.max_flow(source, sink);
    EXPECT_EQ(flow_s, flow_b);
    // Stronger than value equality: the routed flow must be identical
    // edge by edge (same augmenting paths in the same order).
    for (std::size_t e = 0; e < handles_s.size(); ++e)
      EXPECT_EQ(scalar.flow_on(handles_s[e]), bitmap.flow_on(handles_b[e]))
          << "edge " << e;
    EXPECT_EQ(scalar.stats().augmenting_paths, bitmap.stats().augmenting_paths);
    EXPECT_EQ(scalar.stats().bfs_passes, bitmap.stats().bfs_passes);
  }
}

TEST(DinicSimd, DisconnectedSinkAndReuse) {
  // Sink unreachable: the bitmap BFS must drain its frontier and report
  // no flow, and a later add_edge must invalidate the CSR mirror.
  Dinic<long long> graph(4);
  graph.set_level_kernel(1);
  graph.add_edge(0, 1, 5);
  EXPECT_EQ(graph.max_flow(0, 3), 0);
  graph.add_edge(1, 3, 2);  // now a path exists; CSR must rebuild
  EXPECT_EQ(graph.max_flow(0, 3), 2);
  graph.reset_flow();
  EXPECT_EQ(graph.max_flow(0, 3), 2);
}

// ---------------------------------------------------------------- batches

TEST(RatBatch, ToI64) {
  std::vector<Rat> values = {Rat(0), Rat(-17), Rat(42), Rat(kI64Max)};
  std::vector<std::int64_t> out(values.size());
  EXPECT_TRUE(
      rat_batch::to_i64(values.data(), values.size(), out.data(), kI64Max));
  EXPECT_EQ(out[1], -17);
  EXPECT_EQ(out[3], kI64Max);
  // A fractional lane or a lane beyond max_abs declines the whole batch.
  values[1] = Rat(1, 2);
  EXPECT_FALSE(
      rat_batch::to_i64(values.data(), values.size(), out.data(), kI64Max));
  values[1] = Rat(-17);
  EXPECT_FALSE(
      rat_batch::to_i64(values.data(), values.size(), out.data(), 41));
}

TEST(RatBatch, SumMatchesSequential) {
  Rng rng(41);
  for (bool avx2 : {false, true}) {
    if (avx2 && !have_avx2()) continue;
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 50));
      std::vector<Rat> values(n);
      for (auto& v : values) v = Rat(rng.uniform_int(-1000000, 1000000));
      if (trial % 4 == 0 && n > 0) values[0] = Rat(3, 7);  // spill lane
      Rat seq;
      for (const Rat& v : values) seq += v;
      EXPECT_EQ(rat_batch::sum(values.data(), n, avx2), seq);
    }
  }
  // Overflow-adjacent integers: the int64 accumulation must spill, not
  // wrap (the exact sum needs BigInt).
  std::vector<Rat> big = {Rat(kI64Max), Rat(kI64Max), Rat(kI64Max)};
  Rat seq;
  for (const Rat& v : big) seq += v;
  EXPECT_EQ(rat_batch::sum(big.data(), big.size(), false), seq);
  if (have_avx2())
    EXPECT_EQ(rat_batch::sum(big.data(), big.size(), true), seq);
}

TEST(RatBatch, LessThanMatchesOperator) {
  Rng rng(42);
  for (bool avx2 : {false, true}) {
    if (avx2 && !have_avx2()) continue;
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 50));
      std::vector<Rat> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = Rat(rng.uniform_int(-100000, 100000), rng.uniform_int(1, 999));
        b[i] = Rat(rng.uniform_int(-100000, 100000), rng.uniform_int(1, 999));
      }
      if (trial % 3 == 0) a[0] = b[0];          // equal lanes
      if (trial % 5 == 0) a[n - 1] = Rat(kI64Max);  // spill: > 2^31
      std::vector<unsigned char> out(n);
      rat_batch::less_than(a.data(), b.data(), n, out.data(), avx2);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i] != 0, a[i] < b[i]) << "lane " << i;
    }
  }
}

TEST(RatBatch, MakeMatchesCheckedConstruction) {
  Rng rng(43);
  for (bool avx2 : {false, true}) {
    if (avx2 && !have_avx2()) continue;
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 50));
      std::vector<std::int64_t> num(n), den(n);
      for (std::size_t i = 0; i < n; ++i) {
        num[i] = rng.uniform_int(-100000, 100000);
        den[i] = rng.uniform_int(1, 99999);
      }
      if (trial % 3 == 0) num[0] = 0;
      if (trial % 4 == 0) {  // reducible lane with a large shared factor
        num[n - 1] = 7 * 12288;
        den[n - 1] = 7 * 4096;
      }
      std::vector<Rat> batch(n);
      rat_batch::make(num.data(), den.data(), n, batch.data(), avx2);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(batch[i], Rat(BigInt(num[i]), BigInt(den[i]))) << i;
    }
    // INT64_MIN magnitude and negative denominators take the checked spill.
    std::vector<std::int64_t> num = {kI64Min, 3, -5};
    std::vector<std::int64_t> den = {3, 7, 2};
    std::vector<Rat> batch(num.size());
    rat_batch::make(num.data(), den.data(), num.size(), batch.data(), avx2);
    for (std::size_t i = 0; i < num.size(); ++i)
      EXPECT_EQ(batch[i], Rat(BigInt(num[i]), BigInt(den[i])));
    std::vector<std::int64_t> nden = {1, -7};
    std::vector<std::int64_t> nnum = {1, 3};
    std::vector<Rat> nbatch(2);
    rat_batch::make(nnum.data(), nden.data(), 2, nbatch.data(), avx2);
    EXPECT_EQ(nbatch[1], Rat(BigInt(3), BigInt(-7)));
    // Zero denominator throws from the checked constructor in every mode.
    std::vector<std::int64_t> znum = {1};
    std::vector<std::int64_t> zden = {0};
    std::vector<Rat> zbatch(1);
    EXPECT_THROW(rat_batch::make(znum.data(), zden.data(), 1, zbatch.data(),
                                 avx2),
                 std::exception);
  }
}

// ------------------------------------------------------------- end to end

TEST(OracleSimd, EventPointsIdenticalAcrossModes) {
  ModeGuard guard;
  Rng rng(51);
  for (int trial = 0; trial < 10; ++trial) {
    Instance instance =
        gen_general(rng, GenConfig{30, 200, 40, 2});
    if (trial % 2 == 1) {
      // Mix in fractional endpoints: the int64 rebuild must decline and
      // fall back to the Rat sort.
      instance.add_job(Job{Rat(1, 3), Rat(19, 2), Rat(2)});
    }
    util::simd::set_mode(util::simd::Mode::kScalar);
    const std::vector<Rat> scalar_points = instance.event_points();
    util::simd::set_mode(util::simd::Mode::kAuto);
    const std::vector<Rat> auto_points = instance.event_points();
    EXPECT_EQ(scalar_points, auto_points);
  }
}

TEST(OracleSimd, OptIdenticalAcrossModes) {
  ModeGuard guard;
  Rng rng(52);
  struct Case {
    Instance instance;
  };
  std::vector<Instance> cases;
  cases.push_back(gen_unit(rng, GenConfig{120, 15, 15, 1}));
  cases.push_back(gen_general(rng, GenConfig{80, 160, 20, 2}));
  {
    // Fractional instance: the small-grid fast path must decline and the
    // rational network still honors the dispatch mode.
    Instance frac;
    frac.add_job(Job{Rat(0), Rat(3, 2), Rat(1, 2)});
    frac.add_job(Job{Rat(1, 3), Rat(2), Rat(1)});
    frac.add_job(Job{Rat(1, 2), Rat(5, 2), Rat(4, 3)});
    cases.push_back(frac);
  }
  for (const Instance& instance : cases) {
    util::simd::set_mode(util::simd::Mode::kScalar);
    FeasibilityOracle scalar_oracle(instance);
    const std::int64_t opt_scalar = scalar_oracle.optimal_machines();
    const std::int64_t lb_scalar = scalar_oracle.load_lower_bound();
    util::simd::set_mode(util::simd::Mode::kAuto);
    FeasibilityOracle auto_oracle(instance);
    EXPECT_EQ(auto_oracle.optimal_machines(), opt_scalar);
    EXPECT_EQ(auto_oracle.load_lower_bound(), lb_scalar);
  }
}

TEST(OracleSimd, OptionsFlagDisablesAccel) {
  // The scalar mode (the drivers' --simd scalar flag) switches every kernel
  // off; the oracle must answer exactly as under auto dispatch and as the
  // reference oracle.
  ModeGuard guard;
  Rng rng(53);
  const Instance instance = gen_unit(rng, GenConfig{100, 12, 12, 1});
  util::simd::set_mode(util::simd::Mode::kScalar);
  ASSERT_FALSE(util::simd::active());
  FeasibilityOracle plain(instance);
  const std::int64_t opt = plain.optimal_machines();
  util::simd::set_mode(util::simd::Mode::kAuto);
  FeasibilityOracle accel(instance);
  EXPECT_EQ(accel.optimal_machines(), opt);
  EXPECT_EQ(reference_opt(instance), opt);
}

TEST(OracleSimd, SolveAllocationIdenticalAcrossModes) {
  ModeGuard guard;
  Rng rng(54);
  const Instance instance = gen_general(rng, GenConfig{40, 80, 12, 2});
  util::simd::set_mode(util::simd::Mode::kScalar);
  const std::int64_t opt = optimal_migratory_machines(instance);
  const auto scalar_alloc = solve_migratory(instance, opt);
  util::simd::set_mode(util::simd::Mode::kAuto);
  const auto auto_alloc = solve_migratory(instance, opt);
  ASSERT_TRUE(scalar_alloc.has_value());
  ASSERT_TRUE(auto_alloc.has_value());
  EXPECT_EQ(scalar_alloc->segment_starts, auto_alloc->segment_starts);
  EXPECT_EQ(scalar_alloc->per_job, auto_alloc->per_job);
}

}  // namespace
}  // namespace minmach
