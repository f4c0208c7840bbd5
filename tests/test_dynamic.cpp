// Differential tests for the fully-dynamic FeasibilityOracle (DESIGN.md
// section 15) and the svc session layer: every edit sequence, over every
// instance family, must agree with the reference oracle on the live job set
// -- OPT and verdicts -- and (cache off, tier off) it must never execute
// more probes per query than a from-scratch batch oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "minmach/core/bounds.hpp"
#include "minmach/core/instance.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/svc/engine.hpp"
#include "minmach/svc/replay.hpp"
#include "minmach/svc/session.hpp"
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
Instance force_rational_mode(const Instance& in) {
  return affine(in, Rat(0), Rat(1, BigInt(2097143) * BigInt(2097169)));
}

// Mirrors the dynamic oracle with plain bookkeeping: the set of live jobs,
// rebuilt into a fresh batch oracle per check.
struct Mirror {
  std::vector<std::pair<JobId, Job>> live;

  void insert(JobId id, const Job& job) { live.emplace_back(id, job); }
  void remove(JobId id) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].first != id) continue;
      live[i] = live.back();
      live.pop_back();
      return;
    }
    FAIL() << "mirror: removing unknown id " << id;
  }
  [[nodiscard]] Instance instance() const {
    std::vector<Job> jobs;
    jobs.reserve(live.size());
    for (const auto& [id, job] : live) jobs.push_back(job);
    return Instance(std::move(jobs));
  }
};

Mirror mirror_of(const Instance& base) {
  Mirror mirror;
  for (JobId id = 0; id < base.size(); ++id) mirror.insert(id, base.job(id));
  return mirror;
}

// Runs a seeded random edit sequence against `oracle`, comparing OPT (and
// spot verdicts around it) with the reference oracle after every edit.
// `mirror` must already reflect the oracle's live set.
void differential_edits(FeasibilityOracle& oracle, Mirror& mirror,
                        std::uint64_t seed, int edits) {
  Rng rng(seed);
  GenConfig pool_config{1, 60, 16, 4};
  for (int e = 0; e < edits; ++e) {
    if (mirror.live.empty() || rng.bernoulli(0.6)) {
      const Instance one = gen_general(rng, pool_config);
      const JobId id = oracle.insert_job(one.job(0));
      mirror.insert(id, one.job(0));
    } else {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mirror.live.size()) - 1));
      const JobId id = mirror.live[pick].first;
      oracle.remove_job(id);
      mirror.remove(id);
    }
    const std::int64_t expected = reference_opt(mirror.instance());
    ASSERT_EQ(oracle.optimal_machines(), expected)
        << "edit " << e << ", " << mirror.live.size() << " live jobs";
    ASSERT_EQ(oracle.live_jobs(),
              static_cast<std::int64_t>(mirror.live.size()));
    if (expected > 0) {
      ASSERT_TRUE(oracle.feasible(expected));
      ASSERT_FALSE(oracle.feasible(expected - 1));
    }
  }
}

TEST(DynamicOracle, DifferentialAllFamilies) {
  GenConfig config{10, 60, 16, 2};
  std::uint64_t seed = 41;
  std::vector<Instance> bases;
  {
    Rng rng(seed);
    bases.push_back(gen_general(rng, config));
    bases.push_back(gen_agreeable(rng, config));
    bases.push_back(gen_laminar(rng, config));
    bases.push_back(gen_loose(rng, config, Rat(1, 2)));
    bases.push_back(gen_tight(rng, config, Rat(3, 4)));
    bases.push_back(gen_unit(rng, config));
  }
  for (const Instance& base : bases) {
    FeasibilityOracle oracle(base);
    Mirror mirror = mirror_of(base);
    differential_edits(oracle, mirror, ++seed, 24);
  }
}

TEST(DynamicOracle, DifferentialRationalGrid) {
  Rng rng(17);
  const Instance base = force_rational_mode(gen_general(rng, {8, 40, 12, 2}));
  FeasibilityOracle oracle(base);
  // Rational-mode edits: the spliced jobs get the same huge-denominator
  // scaling, so the oracle stays in exact-rational mode throughout.
  Mirror mirror;
  for (JobId id = 0; id < base.size(); ++id) mirror.insert(id, base.job(id));
  const Rat scale(1, BigInt(2097143) * BigInt(2097169));
  for (int e = 0; e < 16; ++e) {
    if (mirror.live.empty() || rng.bernoulli(0.6)) {
      const Instance one = gen_general(rng, {1, 60, 16, 4});
      const Job scaled{one.job(0).release * scale, one.job(0).deadline * scale,
                       one.job(0).processing * scale};
      const JobId id = oracle.insert_job(scaled);
      mirror.insert(id, scaled);
    } else {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mirror.live.size()) - 1));
      oracle.remove_job(mirror.live[pick].first);
      mirror.remove(mirror.live[pick].first);
    }
    ASSERT_EQ(oracle.optimal_machines(), reference_opt(mirror.instance()));
  }
}

TEST(DynamicOracle, GridFallbackMidStream) {
  // Starts on the small-integer grid, then an insert that cannot land on
  // it (denominator 3 against grid scale 1) demotes the oracle to exact
  // rationals -- once, permanently -- without changing any answer.
  FeasibilityOracle oracle(Instance({mk(0, 10, 4), mk(2, 6, 3)}));
  ASSERT_EQ(oracle.optimal_machines(), 1);
  const Job odd{Rat(1, 3), Rat(7, 3), Rat(2)};
  const JobId id = oracle.insert_job(odd);
  Mirror mirror;
  mirror.insert(0, mk(0, 10, 4));
  mirror.insert(1, mk(2, 6, 3));
  mirror.insert(id, odd);
  ASSERT_EQ(oracle.optimal_machines(), reference_opt(mirror.instance()));
  // Edits keep working after the fallback.
  differential_edits(oracle, mirror, 93, 12);
}

TEST(DynamicOracle, CompressionCounterexampleStaysExact) {
  // The PR 3 compression counterexample: one long job plus two unit jobs
  // in its first half; OPT = 3. Built entirely through inserts.
  FeasibilityOracle oracle{Instance{}};
  const JobId long_job = oracle.insert_job(mk(0, 2, 2));
  const JobId unit_a = oracle.insert_job(mk(0, 1, 1));
  const JobId unit_b = oracle.insert_job(mk(0, 1, 1));
  EXPECT_EQ(oracle.optimal_machines(), 3);
  oracle.remove_job(unit_b);
  EXPECT_EQ(oracle.optimal_machines(), 2);
  oracle.remove_job(unit_a);
  EXPECT_EQ(oracle.optimal_machines(), 1);
  oracle.remove_job(long_job);
  EXPECT_EQ(oracle.optimal_machines(), 0);
  EXPECT_EQ(oracle.live_jobs(), 0);
}

TEST(DynamicOracle, ColdRebuildFallbackAgrees) {
  // The spliced layout rebuilds cold twice over: once when the first edit
  // meets the batch layout, and again whenever the zeroed edges of
  // retired jobs outnumber the live ones by the compaction margin. A long
  // remove run forces the second kind; answers match the reference
  // throughout. The bound tier is off so that every query reaches the
  // network (a pinched sandwich would answer without building it).
  GlobalModesGuard guard;
  set_bounds_tier_enabled(false);
  Rng rng(23);
  const Instance base = gen_general(rng, {10, 60, 16, 2});
  FeasibilityOracle oracle(base);
  Mirror mirror = mirror_of(base);
  ASSERT_EQ(oracle.optimal_machines(), reference_opt(base));
  obs::Counter& rebuilds = obs::Registry::global().counter("dyn.rebuilds");
  const std::uint64_t rebuilds0 = rebuilds.value();
  for (int e = 0; e < 40; ++e) {
    const Instance one = gen_general(rng, {1, 60, 16, 4});
    mirror.insert(oracle.insert_job(one.job(0)), one.job(0));
    ASSERT_EQ(oracle.optimal_machines(), reference_opt(mirror.instance()));
  }
  while (mirror.live.size() > 2) {
    const JobId id = mirror.live.back().first;
    oracle.remove_job(id);
    mirror.remove(id);
    ASSERT_EQ(oracle.optimal_machines(), reference_opt(mirror.instance()));
  }
  EXPECT_GE(rebuilds.value() - rebuilds0, 2u);
}

TEST(DynamicOracle, EditsMatchReferenceUnderEveryGlobalMode) {
  // SIMD dispatch and the bound-tier gate are process-wide; edit streams
  // must answer exactly under every combination.
  std::uint64_t seed = 61;
  for_each_global_mode([&] {
    Rng rng(29);
    const Instance base = gen_general(rng, {8, 60, 16, 2});
    FeasibilityOracle oracle(base);
    Mirror mirror = mirror_of(base);
    differential_edits(oracle, mirror, ++seed, 16);
  });
}

TEST(DynamicOracle, MemoShiftsTrackOptAcrossEdits) {
  // k copies of the same tight unit job force OPT = k exactly, so every
  // insert bumps OPT by 1 and every remove drops it by 1 -- the extreme
  // case of the +-1 memo shifts.
  FeasibilityOracle oracle{Instance{}};
  std::vector<JobId> ids;
  for (int k = 1; k <= 6; ++k) {
    ids.push_back(oracle.insert_job(mk(0, 1, 1)));
    ASSERT_EQ(oracle.optimal_machines(), k);
  }
  while (!ids.empty()) {
    oracle.remove_job(ids.back());
    ids.pop_back();
    ASSERT_EQ(oracle.optimal_machines(),
              static_cast<std::int64_t>(ids.size()));
  }
  // Drained to empty: behaves as constructed-empty, and accepts new jobs.
  ASSERT_EQ(oracle.optimal_machines(), 0);
  (void)oracle.insert_job(mk(5, 9, 4));
  ASSERT_EQ(oracle.optimal_machines(), 1);
}

TEST(DynamicOracle, SlotReuseAndDeadEdgeCompaction) {
  // Enough retired edges to trip the dead > live + 64 compaction rebuild,
  // then fresh inserts recycling the freed slots. Answers must track the
  // batch oracle through both.
  Rng rng(71);
  const Instance base = gen_general(rng, {60, 120, 30, 2});
  FeasibilityOracle oracle(base);
  Mirror mirror;
  for (JobId id = 0; id < base.size(); ++id) mirror.insert(id, base.job(id));
  ASSERT_EQ(oracle.optimal_machines(),
            FeasibilityOracle(mirror.instance()).optimal_machines());
  // Retire most of the set, a few at a time, querying as we go.
  while (mirror.live.size() > 5) {
    for (int burst = 0; burst < 4 && mirror.live.size() > 5; ++burst) {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mirror.live.size()) - 1));
      oracle.remove_job(mirror.live[pick].first);
      mirror.remove(mirror.live[pick].first);
    }
    FeasibilityOracle batch(mirror.instance());
    ASSERT_EQ(oracle.optimal_machines(), batch.optimal_machines());
  }
  // Refill: recycled slots must behave like fresh ones.
  differential_edits(oracle, mirror, 73, 20);
}

TEST(DynamicOracle, EditErrors) {
  FeasibilityOracle oracle{Instance{}};
  EXPECT_THROW((void)oracle.insert_job(mk(3, 3, 1)), std::invalid_argument);
  EXPECT_THROW(oracle.remove_job(0), std::invalid_argument);
  const JobId id = oracle.insert_job(mk(0, 2, 1));
  oracle.remove_job(id);
  EXPECT_THROW(oracle.remove_job(id), std::invalid_argument);  // retired
  EXPECT_THROW(oracle.remove_job(99), std::invalid_argument);  // never issued
}

TEST(DynamicOracle, ProbeParityWithBatch) {
  // Audit: with the cache off and the bound tier off, the dynamic oracle's
  // memo shifts keep the post-edit bracket so tight that a query never
  // needs MORE executed probes than a cold batch oracle answering the same
  // question. (Global OptCache is off unless configured; force the tier
  // gate off for the audit and restore it after.)
  set_bounds_tier_enabled(false);
  Rng rng(83);
  const Instance base = gen_general(rng, {10, 60, 16, 2});
  FeasibilityOracle oracle(base);
  Mirror mirror;
  for (JobId id = 0; id < base.size(); ++id) mirror.insert(id, base.job(id));
  (void)oracle.optimal_machines();  // settle the initial memo
  std::uint64_t dynamic_probes = 0, batch_probes = 0;
  for (int e = 0; e < 20; ++e) {
    if (mirror.live.empty() || rng.bernoulli(0.6)) {
      const Instance one = gen_general(rng, {1, 60, 16, 4});
      const JobId id = oracle.insert_job(one.job(0));
      mirror.insert(id, one.job(0));
    } else {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mirror.live.size()) - 1));
      oracle.remove_job(mirror.live[pick].first);
      mirror.remove(mirror.live[pick].first);
    }
    const std::uint64_t before = oracle.probes_executed();
    FeasibilityOracle batch(mirror.instance());
    ASSERT_EQ(oracle.optimal_machines(), batch.optimal_machines());
    const std::uint64_t dyn_q = oracle.probes_executed() - before;
    ASSERT_LE(dyn_q, std::max<std::uint64_t>(batch.probes_executed(), 1))
        << "edit " << e;
    dynamic_probes += dyn_q;
    batch_probes += batch.probes_executed();
  }
  EXPECT_LE(dynamic_probes, batch_probes);
  set_bounds_tier_enabled(true);
}

TEST(DynamicOracle, NeverEditedOracleUnchanged) {
  // The dynamic layout is only adopted on the first edit: a never-edited
  // oracle answers on the batch network and never builds the spliced one.
  Rng rng(101);
  const Instance base = gen_general(rng, {20, 80, 20, 2});
  obs::Counter& rebuilds = obs::Registry::global().counter("dyn.rebuilds");
  const std::uint64_t rebuilds0 = rebuilds.value();
  FeasibilityOracle oracle(base);
  ASSERT_EQ(oracle.optimal_machines(), reference_opt(base));
  for (std::int64_t m = 1; m <= 4; ++m)
    ASSERT_EQ(oracle.feasible(m), reference_feasible(base, m));
  EXPECT_EQ(rebuilds.value(), rebuilds0);
}

TEST(DynamicOracle, FlowCountersRestartAtEveryRebuild) {
  // Every build reinitialises the graph and zeroes its Dinic statistics, so
  // the oracle's published flow.* baseline must restart with it. After a
  // rebuild the next search re-routes every live job from zero flow, and
  // each augmenting path crosses exactly one job node, so the search adds
  // at least live_jobs() augmenting paths. Descending probes beforehand
  // are cold -- each re-routes every job on the same graph -- so a stale
  // baseline would sit far above the new graph's total and the delta would
  // wrap. Two rebuilds: an edit meeting the batch layout, and a job off
  // the integer grid demoting the oracle to exact rationals. The bound
  // tier is off so that every query reaches the network.
  GlobalModesGuard guard;
  set_bounds_tier_enabled(false);
  Rng rng(131);
  const Instance base = gen_general(rng, {40, 60, 16, 1});
  const std::int64_t opt = reference_opt(base);
  Rat lo = base.job(0).release, hi = base.job(0).deadline;
  for (const Job& job : base.jobs()) {
    lo = Rat::min(lo, job.release);
    hi = Rat::max(hi, job.deadline);
  }
  // Both edits fit the whole horizon with room to spare: OPT stays put.
  const Job wide{lo, hi, Rat(1)};
  const Job odd{lo + Rat(1, 3), hi, Rat(1, 3)};
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& paths = registry.counter("flow.augmenting_paths");
  obs::Counter& fallbacks = registry.counter("dyn.grid_fallbacks");
  for (const Job* edit : {&wide, &odd}) {
    FeasibilityOracle oracle(base);
    for (std::int64_t m = oracle.live_jobs() - 1; m >= opt; --m)
      ASSERT_TRUE(oracle.feasible(m)) << "m=" << m;
    const std::uint64_t fallbacks0 = fallbacks.value();
    Mirror mirror = mirror_of(base);
    mirror.insert(oracle.insert_job(*edit), *edit);
    ASSERT_EQ(fallbacks.value() - fallbacks0, edit == &odd ? 1u : 0u);
    ASSERT_EQ(reference_opt(mirror.instance()), opt);
    const std::uint64_t before = paths.value();
    ASSERT_EQ(oracle.optimal_machines(), opt);
    const std::uint64_t added = paths.value() - before;
    EXPECT_GE(added, static_cast<std::uint64_t>(oracle.live_jobs()));
    EXPECT_LT(added, std::uint64_t{1} << 32);
  }
}

// int64 columns over caller-owned storage, as store/corpus.hpp hands them
// to the oracle.
struct Columns {
  std::vector<std::int64_t> release, deadline, processing;

  explicit Columns(const Instance& in) {
    for (const Job& job : in.jobs()) {
      release.push_back(job.release.num().small_value());
      deadline.push_back(job.deadline.num().small_value());
      processing.push_back(job.processing.num().small_value());
    }
  }
  [[nodiscard]] JobColumns view() const {
    return {release.data(), deadline.data(), processing.data(),
            release.size()};
  }
};

// Every verdict from 1 to n + 1 and OPT against the reference.
void expect_matches_reference(FeasibilityOracle& oracle, const Instance& in) {
  for (std::int64_t m = 1; m <= static_cast<std::int64_t>(in.size()) + 1; ++m)
    ASSERT_EQ(oracle.feasible(m), reference_feasible(in, m)) << "m=" << m;
  ASSERT_EQ(oracle.optimal_machines(), reference_opt(in));
}

TEST(DynamicOracle, JobColumnsFallBackOutsideTheIntegerGrid) {
  // Columns the integer grid cannot adopt -- a value outside +-(2^62 - 1),
  // or a total work past int64 -- go through the Instance path instead of
  // the zero-copy one; answers and later edits still match the reference.
  constexpr std::int64_t kBig = std::int64_t{1} << 62;
  obs::Counter& zero_copy =
      obs::Registry::global().counter("store.corpus_zero_copy");
  const Instance far({mk(-kBig, -kBig + 8, 3), mk(0, 10, 4), mk(2, 6, 3),
                      mk(2, 6, 4)});
  const Instance heavy({mk(0, kBig - 1, kBig - 1), mk(0, kBig - 1, kBig - 1),
                        mk(0, kBig - 1, kBig - 1), mk(5, 9, 2)});
  const Instance small({mk(0, 10, 4), mk(2, 6, 3), mk(2, 6, 4)});
  for (const Instance* in : {&far, &heavy, &small}) {
    const Columns columns(*in);
    const std::uint64_t zero_copy0 = zero_copy.value();
    FeasibilityOracle oracle(columns.view());
    EXPECT_EQ(zero_copy.value() - zero_copy0, in == &small ? 1u : 0u);
    expect_matches_reference(oracle, *in);
    Mirror mirror = mirror_of(*in);
    mirror.insert(oracle.insert_job(mk(1, 7, 5)), mk(1, 7, 5));
    oracle.remove_job(1);
    mirror.remove(1);
    expect_matches_reference(oracle, mirror.instance());
  }
  // Malformed columns are reported as such, like a malformed Instance.
  const Columns bad(Instance({mk(0, 10, 4), mk(3, 5, 3)}));
  FeasibilityOracle oracle(bad.view());
  EXPECT_FALSE(oracle.feasible(2));
  EXPECT_THROW((void)oracle.optimal_machines(), std::invalid_argument);
  EXPECT_THROW((void)oracle.insert_job(mk(0, 2, 1)), std::invalid_argument);
}

TEST(DynamicOracle, JobColumnsEditsInScaledCoordinates) {
  // Columns holding an instance scaled onto its denominator-lcm grid are
  // adopted as the integer grid with scale 1, so inserts come in the same
  // scaled coordinates -- on the grid or, when a denominator survives the
  // scaling, through the rational fallback.
  Rng rng(137);
  const Instance base = gen_general(rng, {12, 60, 16, 3});
  const Rat scale(base.denominator_lcm(), BigInt(1));
  ASSERT_GT(scale, Rat(1));
  const Instance scaled = affine(base, Rat(0), scale);
  const Columns columns(scaled);
  FeasibilityOracle oracle(columns.view());
  Mirror mirror = mirror_of(scaled);
  ASSERT_EQ(oracle.optimal_machines(), reference_opt(scaled));
  for (int e = 0; e < 16; ++e) {
    if (rng.bernoulli(0.6)) {
      const Job job =
          affine(gen_general(rng, {1, 60, 16, 4}).job(0), Rat(0), scale);
      mirror.insert(oracle.insert_job(job), job);
    } else {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mirror.live.size()) - 1));
      const JobId id = mirror.live[pick].first;
      oracle.remove_job(id);
      mirror.remove(id);
    }
    ASSERT_EQ(oracle.optimal_machines(), reference_opt(mirror.instance()))
        << "edit " << e;
  }
}

TEST(DynamicOracle, FirstInsertDecidesTheGrid) {
  // The first job of an empty oracle picks the grid: a small integer job
  // the scale-1 integer grid, anything else exact rationals (never an lcm
  // grid, which a later denominator could break). dyn.grid_fallbacks
  // counts the demotions that follow.
  obs::Counter& fallbacks =
      obs::Registry::global().counter("dyn.grid_fallbacks");
  const Job third{Rat(1, 3), Rat(7, 3), Rat(1)};
  const Job seventh{Rat(1, 7), Rat(9, 7), Rat(1, 7)};
  struct Stream {
    std::vector<Job> jobs;
    std::uint64_t demotions;
  };
  const Stream streams[] = {
      {{mk(0, 4, 2), mk(1, 3, 2), third, seventh}, 1},  // integer first
      {{third, seventh, mk(0, 4, 2), mk(1, 3, 2)}, 0},  // rational first
  };
  for (const Stream& stream : streams) {
    for (const bool columns : {false, true}) {
      FeasibilityOracle oracle = columns ? FeasibilityOracle(JobColumns{})
                                         : FeasibilityOracle(Instance{});
      const std::uint64_t fallbacks0 = fallbacks.value();
      Mirror mirror;
      for (const Job& job : stream.jobs) {
        mirror.insert(oracle.insert_job(job), job);
        expect_matches_reference(oracle, mirror.instance());
      }
      EXPECT_EQ(fallbacks.value() - fallbacks0, stream.demotions);
    }
  }
}

// ---- svc: session + engine + replay -----------------------------------

TEST(SvcSession, CoalescesEditsBetweenQueries) {
  svc::Session session;
  EXPECT_EQ(session.query_opt(), 0);
  session.on_release(1, mk(0, 4, 2));
  session.on_release(2, mk(0, 2, 2));
  // Job 2 completes before any query: the oracle never sees it.
  session.on_complete(2);
  EXPECT_EQ(session.query_opt(), 1);
  EXPECT_EQ(session.coalesced(), 1u);
  EXPECT_EQ(session.live_jobs(), 1);
  session.on_complete(1);
  EXPECT_EQ(session.query_opt(), 0);
  EXPECT_EQ(session.coalesced(), 1u);  // admitted job: a real remove
}

TEST(SvcSession, Errors) {
  svc::Session session;
  session.on_release(7, mk(0, 4, 2));
  EXPECT_THROW(session.on_release(7, mk(0, 4, 2)), std::invalid_argument);
  EXPECT_THROW(session.on_complete(8), std::invalid_argument);
  EXPECT_THROW(session.on_release(9, mk(4, 4, 1)), std::invalid_argument);
  session.on_complete(7);
  EXPECT_THROW(session.on_complete(7), std::invalid_argument);
  // External ids are reusable once completed.
  session.on_release(7, mk(1, 5, 2));
  EXPECT_EQ(session.query_opt(), 1);
}

std::vector<svc::Event> mixed_stream(std::uint64_t sessions, int events,
                                     std::uint64_t seed) {
  std::vector<svc::Event> out;
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> live(sessions);
  std::vector<std::int64_t> next(sessions, 0);
  for (int e = 0; e < events; ++e) {
    for (std::uint64_t s = 0; s < sessions; ++s) {
      svc::Event event;
      event.session = s;
      const std::int64_t roll = rng.uniform_int(0, 99);
      if (live[s].empty() || roll < 55) {
        event.kind = svc::Event::Kind::kRelease;
        event.job = next[s]++;
        const std::int64_t r = rng.uniform_int(0, 40);
        const std::int64_t len = rng.uniform_int(1, 10);
        event.payload = mk(r, r + len, rng.uniform_int(1, len));
        live[s].push_back(event.job);
      } else if (roll < 75) {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live[s].size()) - 1));
        event.kind = svc::Event::Kind::kComplete;
        event.job = live[s][pick];
        live[s][pick] = live[s].back();
        live[s].pop_back();
      } else {
        event.kind = svc::Event::Kind::kQuery;
      }
      out.push_back(std::move(event));
    }
  }
  return out;
}

TEST(SvcEngine, ByteIdenticalReportAcrossThreadCounts) {
  const std::vector<svc::Event> stream = mixed_stream(9, 30, 131);
  svc::EngineOptions one;
  one.threads = 1;
  svc::EngineOptions four;
  four.threads = 4;
  const std::string report_1t = svc::replay_events(stream, one);
  const std::string report_4t = svc::replay_events(stream, four);
  EXPECT_EQ(report_1t, report_4t);
  // And the answers are the batch oracle's: replay one session by hand.
  svc::SessionEngine engine(one);
  engine.ingest(stream);
  Mirror mirror;
  std::vector<std::int64_t> expected;
  for (const svc::Event& event : stream) {
    if (event.session != 3) continue;
    if (event.kind == svc::Event::Kind::kRelease) {
      mirror.insert(static_cast<JobId>(event.job), event.payload);
    } else if (event.kind == svc::Event::Kind::kComplete) {
      mirror.remove(static_cast<JobId>(event.job));
    } else {
      FeasibilityOracle batch(mirror.instance());
      expected.push_back(batch.optimal_machines());
    }
  }
  EXPECT_EQ(engine.answers(3), expected);
}

TEST(SvcEngine, IncrementalBatchesMatchOneShot) {
  const std::vector<svc::Event> stream = mixed_stream(5, 24, 137);
  svc::SessionEngine one_shot;
  one_shot.ingest(stream);
  svc::SessionEngine incremental;
  std::vector<svc::Event> chunk;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    chunk.push_back(stream[i]);
    if (chunk.size() == 17 || i + 1 == stream.size()) {
      incremental.ingest(chunk);
      chunk.clear();
    }
  }
  EXPECT_EQ(one_shot.report_json(), incremental.report_json());
}

TEST(SvcEngine, RejectsUnindexableSessionIdWithoutChangingState) {
  // Session ids index the engine's tables, so UINT64_MAX (whose id + 1
  // wraps to 0) must be refused before any state changes -- alone or
  // behind a valid event in the same batch.
  svc::SessionEngine engine;
  engine.ingest(mixed_stream(2, 8, 149));
  const std::string report = engine.report_json();
  const std::size_t sessions = engine.session_count();
  const std::uint64_t events = engine.events_ingested();
  svc::Event valid;
  valid.kind = svc::Event::Kind::kQuery;
  valid.session = 1;
  svc::Event huge = valid;
  huge.session = std::numeric_limits<std::uint64_t>::max();
  for (const std::vector<svc::Event>& batch :
       {std::vector<svc::Event>{huge}, std::vector<svc::Event>{valid, huge}}) {
    try {
      engine.ingest(batch);
      ADD_FAILURE() << "a batch with session id UINT64_MAX was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("18446744073709551615"),
                std::string::npos)
          << error.what();
    }
    EXPECT_EQ(engine.session_count(), sessions);
    EXPECT_EQ(engine.events_ingested(), events);
    EXPECT_EQ(engine.report_json(), report);
  }
  // The engine keeps serving after a rejected batch.
  engine.ingest({valid});
  EXPECT_EQ(engine.events_ingested(), events + 1);
}

TEST(SvcReplay, JsonlRoundTrip) {
  const std::vector<svc::Event> stream = mixed_stream(4, 16, 139);
  const std::string jsonl = svc::to_jsonl(stream);
  const std::vector<svc::Event> reparsed = svc::parse_jsonl(jsonl);
  ASSERT_EQ(reparsed.size(), stream.size());
  EXPECT_EQ(svc::to_jsonl(reparsed), jsonl);
  EXPECT_EQ(svc::replay_events(stream), svc::replay_events(reparsed));
}

TEST(SvcReplay, RationalTimesSurviveTheRoundTrip) {
  svc::Event release;
  release.kind = svc::Event::Kind::kRelease;
  release.session = 0;
  release.job = 1;
  release.payload = Job{Rat(1, 3), Rat(7, 2), Rat(5, 6)};
  svc::Event query;
  query.kind = svc::Event::Kind::kQuery;
  const std::vector<svc::Event> stream = {release, query};
  const std::vector<svc::Event> reparsed =
      svc::parse_jsonl(svc::to_jsonl(stream));
  ASSERT_EQ(reparsed.size(), 2u);
  EXPECT_EQ(reparsed[0].payload.release, Rat(1, 3));
  EXPECT_EQ(reparsed[0].payload.deadline, Rat(7, 2));
  EXPECT_EQ(reparsed[0].payload.processing, Rat(5, 6));
}

TEST(SvcReplay, FullRangeIdsSurviveTheRoundTrip) {
  svc::Event complete;
  complete.kind = svc::Event::Kind::kComplete;
  complete.session = std::numeric_limits<std::uint64_t>::max();
  complete.job = std::numeric_limits<std::int64_t>::min();
  svc::Event query;
  query.kind = svc::Event::Kind::kQuery;
  query.session = complete.session;
  const std::string jsonl = svc::to_jsonl({complete, query});
  const std::vector<svc::Event> reparsed = svc::parse_jsonl(jsonl);
  ASSERT_EQ(reparsed.size(), 2u);
  EXPECT_EQ(reparsed[0].session, complete.session);
  EXPECT_EQ(reparsed[0].job, complete.job);
  EXPECT_EQ(reparsed[1].session, complete.session);
  EXPECT_EQ(svc::to_jsonl(reparsed), jsonl);
}

TEST(SvcReplay, RefusesFractionsExponentsAndOverflowInIntegerFields) {
  const char* const bad[] = {
      R"({"e":"complete","s":1.9,"j":3})",
      R"({"e":"complete","s":1,"j":3e2})",
      R"({"e":"complete","s":1e0,"j":3})",
      R"({"e":"complete","s":1,"j":3.0})",
      R"({"e":"query","s":-1})",
      R"({"e":"query","s":18446744073709551616})",
      R"({"e":"complete","s":0,"j":9223372036854775808})",
      R"({"e":"complete","s":0,"j":-9223372036854775809})",
  };
  for (const char* line : bad) {
    try {
      (void)svc::parse_jsonl(line);
      ADD_FAILURE() << "accepted " << line;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("line 1:"), std::string::npos)
          << error.what();
    }
  }
  // A signed job id is an integer like any other.
  const std::vector<svc::Event> signed_job =
      svc::parse_jsonl(R"({"e":"complete","s":7,"j":-5})");
  ASSERT_EQ(signed_job.size(), 1u);
  EXPECT_EQ(signed_job[0].session, 7u);
  EXPECT_EQ(signed_job[0].job, -5);
}

TEST(SvcReplay, ParseErrors) {
  EXPECT_THROW((void)svc::parse_jsonl("{not json}"), std::invalid_argument);
  EXPECT_THROW((void)svc::parse_jsonl("[1,2]"), std::invalid_argument);
  EXPECT_THROW((void)svc::parse_jsonl(R"({"e":"warp","s":0})"),
               std::invalid_argument);
  EXPECT_THROW((void)svc::parse_jsonl(R"({"e":"release","s":0,"j":1})"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)svc::parse_jsonl(R"({"e":"release","s":0,"j":1,"r":"x","d":"2","p":"1"})"),
      std::invalid_argument);
  // Blank lines are fine; the line number in the message is 1-based.
  EXPECT_NO_THROW((void)svc::parse_jsonl("\n\n{\"e\":\"query\",\"s\":0}\n"));
}

}  // namespace
}  // namespace minmach
