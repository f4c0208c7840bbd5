// Tests for the observability layer: metrics registry determinism, hot-tally
// draining, snapshot/diff/serialization, JSONL tracing, the Chrome trace
// exporter, and the deterministic JSON writer/parser underneath them all.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/core/instance.hpp"
#include "minmach/core/schedule.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/histogram.hpp"
#include "minmach/obs/json.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/obs/profile.hpp"
#include "minmach/obs/report.hpp"
#include "minmach/obs/trace.hpp"
#include "minmach/svc/engine.hpp"
#include "minmach/util/bigint.hpp"
#include "minmach/util/hash.hpp"
#include "minmach/util/opt_cache.hpp"
#include "minmach/util/rational.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/simd.hpp"

namespace minmach::obs {
namespace {

// ---- json ---------------------------------------------------------------

TEST(Json, EscapeControlAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape(std::string("x\n\t\x01y")), "x\\n\\t\\u0001y");
}

TEST(Json, WriterGolden) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("name").value("e05");
  w.key("ok").value(true);
  w.key("count").value(std::int64_t{42});
  w.key("ratio").value(0.5);
  w.key("rows").begin_array();
  w.value("1/2");
  w.value(std::uint64_t{7});
  w.end_array();
  w.key("empty").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"e05\",\n"
            "  \"ok\": true,\n"
            "  \"count\": 42,\n"
            "  \"ratio\": 0.5,\n"
            "  \"rows\": [\n"
            "    \"1/2\",\n"
            "    7\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}\n");
}

TEST(Json, ParserRoundTripPreservesOrderAndLiterals) {
  JsonValue v = parse_json(
      "{\"b\": 1, \"a\": [true, null, \"x\\ny\"], \"n\": 0.500}");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.members[0].first, "b");  // source order, not sorted
  EXPECT_EQ(v.members[1].first, "a");
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_TRUE(a->items[0].boolean);
  EXPECT_EQ(a->items[1].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(a->items[2].text, "x\ny");
  // Numbers keep their literal text for canonical-format checks.
  EXPECT_EQ(v.find("n")->literal, "0.500");
  EXPECT_DOUBLE_EQ(v.find("n")->number, 0.5);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)parse_json("{"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{\"a\": }"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("[1, 2,]"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("tru"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{} x"), std::invalid_argument);
}

// ---- metrics ------------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  Counter c;
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
  EXPECT_EQ(g.max_value(), 7);
  g.set(9);
  EXPECT_EQ(g.max_value(), 9);
}

TEST(Metrics, HistogramBucketsAndExtremes) {
  Histogram h;
  EXPECT_EQ(h.data().count, 0u);
  EXPECT_EQ(h.data().min, 0);  // empty histogram reports 0, not the sentinel
  h.observe(0);
  h.observe(1);
  h.observe(5);
  h.observe(-2);  // clamps to 0
  HistogramData d = h.data();
  EXPECT_EQ(d.count, 4u);
  EXPECT_EQ(d.sum, 6);  // -2 clamped before summing
  EXPECT_EQ(d.min, 0);
  EXPECT_EQ(d.max, 5);
  // bit_width buckets: 0 -> 0 (twice), 1 -> 1, 5 -> 3.
  EXPECT_EQ(d.bins.at(0), 2u);
  EXPECT_EQ(d.bins.at(1), 1u);
  EXPECT_EQ(d.bins.at(3), 1u);
}

TEST(Metrics, RegistryNamedLookupIsStable) {
  Registry& r = Registry::global();
  r.reset();
  Counter& a = r.counter("test.lookup");
  a.add(3);
  EXPECT_EQ(&r.counter("test.lookup"), &a);
  EXPECT_EQ(r.snapshot().counters.at("test.lookup"), 3u);
  r.reset();
  // reset() zeroes but never deletes: the reference stays valid.
  EXPECT_EQ(a.value(), 0u);
}

TEST(Metrics, SnapshotDiffSubtractsCountersAndHistograms) {
  Registry& r = Registry::global();
  r.reset();
  r.counter("test.diff.c").add(10);
  r.histogram("test.diff.h").observe(4);
  Snapshot before = r.snapshot();
  r.counter("test.diff.c").add(5);
  r.histogram("test.diff.h").observe(4);
  Snapshot after = r.snapshot();
  Snapshot delta = after.diff(before);
  EXPECT_EQ(delta.counters.at("test.diff.c"), 5u);
  EXPECT_EQ(delta.histograms.at("test.diff.h").count, 1u);
  EXPECT_EQ(delta.histograms.at("test.diff.h").sum, 4);
  r.reset();
}

TEST(Metrics, SnapshotJsonIsDeterministicAndOmitsTimings) {
  Registry& r = Registry::global();
  r.reset();
  r.counter("test.json.b").add(2);
  r.counter("test.json.a").add(1);
  {
    ScopedTimer t(r.timing("test.json.timer"));
  }
  Snapshot snap = r.snapshot();
  EXPECT_EQ(snap.timings.at("test.json.timer").count, 1u);
  std::string json = snap.to_json();
  // Timings are wall clock, hence excluded from the deterministic form.
  EXPECT_EQ(json.find("test.json.timer"), std::string::npos);
  JsonValue v = parse_json(json);
  const JsonValue* counters = v.find("counters");
  ASSERT_NE(counters, nullptr);
  // std::map ordering: "test.json.a" serializes before "test.json.b".
  std::size_t pos_a = json.find("test.json.a");
  std::size_t pos_b = json.find("test.json.b");
  EXPECT_LT(pos_a, pos_b);
  // Asked explicitly, the timing section appears.
  EXPECT_NE(snap.to_json(/*include_timings=*/true).find("test.json.timer"),
            std::string::npos);
  r.reset();
}

TEST(Metrics, ParallelMergeIsThreadCountInvariant) {
  auto run = [](std::size_t threads) {
    Registry& r = Registry::global();
    r.reset();
    bench::parallel_map(16, threads, [&](std::size_t i) {
      r.counter("test.par.counter").add(i + 1);
      r.histogram("test.par.hist").observe(static_cast<std::int64_t>(i));
      return i;
    });
    return r.snapshot();
  };
  Snapshot single = run(1);
  Snapshot parallel = run(4);
  EXPECT_EQ(single, parallel);
  EXPECT_EQ(single.counters.at("test.par.counter"), 16u * 17u / 2u);
  EXPECT_EQ(single.histograms.at("test.par.hist").count, 16u);
  EXPECT_EQ(single.to_json(), parallel.to_json());
  Registry::global().reset();
}

// Execution-class metrics (oracle.*, flow.*, cache.*, speculate.*,
// bigint.*, rat.*, mem.*, simd.*) measure HOW an answer was computed -- a
// warm cache skips probes and all the arithmetic inside them, a SIMD
// kernel counts lanes the scalar path never sees -- so snapshots segregate
// them from the semantic counters and to_json() omits them by default
// (that is what keeps --report bytes identical with the cache on or off
// and under any --simd dispatch mode).
TEST(Metrics, ExecClassMetricsAreSegregatedFromSemanticOnes) {
  EXPECT_TRUE(is_exec_metric("oracle.probes"));
  EXPECT_TRUE(is_exec_metric("flow.augmentations"));
  EXPECT_TRUE(is_exec_metric("cache.hits"));
  EXPECT_TRUE(is_exec_metric("speculate.rounds"));
  EXPECT_TRUE(is_exec_metric("bigint.promotions"));
  EXPECT_TRUE(is_exec_metric("rat.fast_ops"));
  EXPECT_TRUE(is_exec_metric("mem.bigint_spill"));
  EXPECT_TRUE(is_exec_metric("simd.lanes_used"));
  EXPECT_TRUE(is_exec_metric("simd.scalar_spills"));
  EXPECT_TRUE(is_exec_metric("profile.opt_search/probe.calls"));
  EXPECT_TRUE(is_exec_metric("hist.probe_ns"));
  EXPECT_TRUE(is_exec_metric("store.hits_disk"));
  EXPECT_TRUE(is_exec_metric("store.wal_appends"));
  EXPECT_TRUE(is_exec_metric("store.mmap_bytes"));
  EXPECT_TRUE(is_exec_metric("store.corpus_zero_copy"));
  EXPECT_FALSE(is_exec_metric("adversary.case1"));
  EXPECT_FALSE(is_exec_metric("sim.jobs"));
  EXPECT_FALSE(is_exec_metric("test.semantic"));
  EXPECT_FALSE(is_exec_metric("oracle"));  // prefix needs the dot

  Registry& r = Registry::global();
  r.reset();
  r.counter("cache.hits").add(3);
  r.counter("test.semantic").add(5);
  r.histogram("speculate.depth").observe(2);
  r.histogram("test.hist").observe(1);
  Snapshot snap = r.snapshot();
  EXPECT_EQ(snap.exec_counters.at("cache.hits"), 3u);
  EXPECT_EQ(snap.counters.at("test.semantic"), 5u);
  EXPECT_EQ(snap.counters.count("cache.hits"), 0u);
  EXPECT_EQ(snap.exec_histograms.at("speculate.depth").count, 1u);
  EXPECT_EQ(snap.histograms.count("speculate.depth"), 0u);

  const std::string semantic_json = snap.to_json();
  EXPECT_EQ(semantic_json.find("cache.hits"), std::string::npos);
  EXPECT_EQ(semantic_json.find("speculate.depth"), std::string::npos);
  EXPECT_NE(semantic_json.find("test.semantic"), std::string::npos);
  const std::string full_json =
      snap.to_json(/*include_timings=*/false, /*include_exec=*/true);
  EXPECT_NE(full_json.find("cache.hits"), std::string::npos);
  EXPECT_NE(full_json.find("speculate.depth"), std::string::npos);
  r.reset();
}

// The SIMD dispatch mode only moves simd.* / flow.* execution-class
// tallies: the same OPT computation under scalar and auto dispatch must
// produce byte-identical semantic report JSON, while (when the AVX2
// kernels are live) the accel run records lane traffic the scalar run
// cannot.
TEST(Metrics, SimdDispatchInvarianceOfSemanticSnapshots) {
  const util::simd::Mode saved = util::simd::mode();
  Rng rng(97);
  const Instance instance = gen_unit(rng, GenConfig{80, 10, 10, 1});
  auto run = [&](util::simd::Mode mode) {
    util::simd::set_mode(mode);
    Registry& r = Registry::global();
    (void)r.snapshot();  // drain residue from earlier tests
    r.reset();
    FeasibilityOracle oracle(instance);
    r.counter("test.opt_value")
        .add(static_cast<std::uint64_t>(oracle.optimal_machines()));
    return r.snapshot();
  };
  Snapshot scalar = run(util::simd::Mode::kScalar);
  Snapshot fast = run(util::simd::Mode::kAuto);
  util::simd::set_mode(saved);
  EXPECT_EQ(scalar.counters.at("test.opt_value"),
            fast.counters.at("test.opt_value"));
  // Semantic view (what --report serializes): byte-identical across modes.
  EXPECT_EQ(scalar.to_json(), fast.to_json());
#if MINMACH_OBS_ENABLED
  // The drain materializes every tally counter (possibly at zero); the
  // VALUE is what the dispatch mode moves.
  auto lanes = [](const Snapshot& snap) -> std::uint64_t {
    auto it = snap.exec_counters.find("simd.lanes_used");
    return it == snap.exec_counters.end() ? 0u : it->second;
  };
  EXPECT_EQ(lanes(scalar), 0u);
  if (util::simd::supported()) EXPECT_GT(lanes(fast), 0u);
#endif
  Registry::global().reset();
}

// The bound tier only moves bounds.* / oracle.* execution-class tallies:
// the same OPT computation with the sandwich on and off must produce
// byte-identical semantic report JSON (bounds.* routes through
// is_exec_metric like cache.* and simd.*), while the tier-on run records
// pinches and skipped probes the tier-off run cannot. The tier's tallies
// are also a pure function of the instance set, so they merge identically
// at any thread count.
TEST(Metrics, BoundTierInvarianceOfSemanticSnapshots) {
  EXPECT_TRUE(is_exec_metric("bounds.computed"));
  EXPECT_TRUE(is_exec_metric("bounds.pinched"));
  EXPECT_TRUE(is_exec_metric("bounds.probes_skipped"));
  EXPECT_TRUE(is_exec_metric("bounds.bracket_width"));
  EXPECT_TRUE(is_exec_metric("hist.bound_ns"));

  const bool saved = bounds_tier_enabled();
  Rng rng(131);
  std::vector<Instance> instances;
  for (int i = 0; i < 8; ++i)
    instances.push_back(gen_general(rng, GenConfig{24, 60, 16, 3}));
  auto run = [&](bool bounds_on, std::size_t threads) {
    set_bounds_tier_enabled(bounds_on);
    Registry& r = Registry::global();
    (void)r.snapshot();  // drain residue from earlier tests
    r.reset();
    std::vector<std::int64_t> opts =
        bench::parallel_map(instances.size(), threads, [&](std::size_t i) {
          FeasibilityOracle oracle(instances[i]);
          return oracle.optimal_machines();
        });
    Registry& reg = Registry::global();
    for (std::size_t i = 0; i < opts.size(); ++i)
      reg.counter("test.opt_sum").add(static_cast<std::uint64_t>(opts[i]));
    return reg.snapshot();
  };
  Snapshot off = run(false, 1);
  Snapshot on = run(true, 1);
  Snapshot on_parallel = run(true, 4);
  set_bounds_tier_enabled(saved);
  // Same answers, byte-identical semantic report either way.
  EXPECT_EQ(off.counters.at("test.opt_sum"), on.counters.at("test.opt_sum"));
  EXPECT_EQ(off.to_json(), on.to_json());
#if MINMACH_OBS_ENABLED
  // The tier really ran: sandwiches were computed only in the on runs.
  auto exec = [](const Snapshot& snap, const char* name) -> std::uint64_t {
    auto it = snap.exec_counters.find(name);
    return it == snap.exec_counters.end() ? 0u : it->second;
  };
  EXPECT_EQ(exec(off, "bounds.computed"), 0u);
  EXPECT_EQ(exec(on, "bounds.computed"), instances.size());
  // Pure function of the instance set: identical tallies at any thread
  // count (exec maps included, like the cache/mem tallies below; gauges
  // excluded -- high-water marks legitimately depend on the worker split).
  EXPECT_EQ(on.counters, on_parallel.counters);
  EXPECT_EQ(on.histograms, on_parallel.histograms);
  EXPECT_EQ(on.exec_counters, on_parallel.exec_counters);
  EXPECT_EQ(on.exec_histograms, on_parallel.exec_histograms);
  EXPECT_EQ(on.to_json(false, /*include_exec=*/true),
            on_parallel.to_json(false, /*include_exec=*/true));
#endif
  Registry::global().reset();
}

// Dynamic-oracle edits split their tallies across the two metric classes:
// dyn.* records HOW a splice ran (edges patched, paths drained, rebuilds
// avoided) and is execution-class, while svc.* records WHAT the session
// layer was asked to do (releases, completes, queries, coalesced edits)
// and is semantic -- it appears in deterministic reports. Both families
// are pure functions of the event set (each session drains its bucket in
// batch order regardless of which worker owns it), so a SessionEngine
// ingest tallies identically at any thread count; and under --profile the
// edit paths expose dyn_insert / dyn_remove / flow_repair spans plus the
// per-event hist.event_ns latency histogram.
TEST(Metrics, DynamicOracleTalliesClassifyAndMergeDeterministically) {
  EXPECT_TRUE(is_exec_metric("dyn.inserts"));
  EXPECT_TRUE(is_exec_metric("dyn.removes"));
  EXPECT_TRUE(is_exec_metric("dyn.edges_patched"));
  EXPECT_TRUE(is_exec_metric("dyn.rebuilds_avoided"));
  EXPECT_TRUE(is_exec_metric("hist.event_ns"));
  EXPECT_FALSE(is_exec_metric("svc.releases"));
  EXPECT_FALSE(is_exec_metric("svc.completes"));
  EXPECT_FALSE(is_exec_metric("svc.queries"));
  EXPECT_FALSE(is_exec_metric("svc.coalesced"));

#if MINMACH_OBS_ENABLED
  auto job = [](int r, int d, int p) { return Job{Rat(r), Rat(d), Rat(p)}; };
  std::vector<svc::Event> stream;
  for (std::uint64_t s = 0; s < 6; ++s) {
    for (int j = 0; j < 5; ++j) {
      stream.push_back({svc::Event::Kind::kRelease, s, j,
                        job(j, j + 4 + static_cast<int>(s % 3), 2)});
      if (j % 2 == 1) {
        stream.push_back({svc::Event::Kind::kQuery, s, 0, {}});
      }
    }
    stream.push_back({svc::Event::Kind::kComplete, s, 1, {}});
    stream.push_back({svc::Event::Kind::kQuery, s, 0, {}});
  }
  // Force probes: with the bound tier pinning every query the network is
  // never built and splices have no routed edges to patch.
  const bool saved_tier = bounds_tier_enabled();
  set_bounds_tier_enabled(false);
  auto run = [&](int threads) {
    Registry& r = Registry::global();
    (void)r.snapshot();  // drain residue from earlier tests
    r.reset();
    svc::EngineOptions options;
    options.threads = threads;
    svc::SessionEngine engine(options);
    engine.ingest(stream);
    return r.snapshot();
  };
  Snapshot single = run(1);
  Snapshot parallel = run(4);
  EXPECT_EQ(single.counters.at("svc.releases"), 30u);
  EXPECT_EQ(single.counters.at("svc.completes"), 6u);
  EXPECT_EQ(single.counters.at("svc.queries"), 18u);
  EXPECT_GT(single.exec_counters.at("dyn.inserts"), 0u);
  EXPECT_GT(single.exec_counters.at("dyn.edges_patched"), 0u);
  // Routing: dyn.* never leaks into the semantic map and vice versa.
  EXPECT_EQ(single.counters.count("dyn.inserts"), 0u);
  EXPECT_EQ(single.exec_counters.count("svc.releases"), 0u);
  EXPECT_EQ(single.counters, parallel.counters);
  EXPECT_EQ(single.exec_counters, parallel.exec_counters);
  EXPECT_EQ(single.to_json(), parallel.to_json());

  Registry::global().reset();
  LatencyRegistry::global().reset();
  set_profiling(true);
  {
    FeasibilityOracle oracle{Instance{}};
    const JobId a = oracle.insert_job(job(0, 4, 2));
    (void)oracle.insert_job(job(1, 5, 2));
    (void)oracle.optimal_machines();
    oracle.remove_job(a);
    (void)oracle.optimal_machines();
  }
  svc::SessionEngine engine(svc::EngineOptions{});
  engine.ingest(stream);
  set_profiling(false);
  set_bounds_tier_enabled(saved_tier);
  Snapshot profiled = Registry::global().snapshot();
  auto span_calls = [&](std::string_view needle) {
    std::uint64_t total = 0;
    for (const auto& [name, value] : profiled.exec_counters) {
      if (name.rfind("profile.", 0) == 0 &&
          name.find(needle) != std::string::npos && name.size() >= 6 &&
          name.compare(name.size() - 6, 6, ".calls") == 0) {
        total += value;
      }
    }
    return total;
  };
  EXPECT_GT(span_calls("dyn_insert"), 0u);
  EXPECT_GT(span_calls("dyn_remove"), 0u);
  EXPECT_GT(span_calls("flow_repair"), 0u);
  const auto latencies = LatencyRegistry::global().summaries();
  ASSERT_EQ(latencies.count("hist.event_ns"), 1u);
  EXPECT_EQ(latencies.at("hist.event_ns").count, stream.size());
  LatencyRegistry::global().reset();
#endif
  Registry::global().reset();
}

// cache.* / speculate.* tallies merge deterministically across thread
// counts when the workload pins them down: a serial warm phase inserts
// every key exactly once, then a parallel phase performs read-only all-hit
// lookups, so hit/miss/insert totals are a pure function of the task set
// no matter which worker runs which task.
TEST(Metrics, CacheAndSpeculateTalliesMergeDeterministically) {
  auto key = [](std::size_t i) {
    return util::Digest128{util::mix64(i * 2 + 1), util::mix64(i * 3 + 7)};
  };
  auto run = [&](std::size_t threads) {
    util::OptCache& cache = util::OptCache::global();
    cache.configure(true, 1 << 10);
    Registry& r = Registry::global();
    (void)r.snapshot();  // drain residue on the calling thread
    r.reset();
    const std::size_t tasks = 16;
    for (std::size_t i = 0; i < tasks; ++i)
      cache.insert_opt(key(i), static_cast<std::int64_t>(i));
    std::vector<std::int64_t> values =
        bench::parallel_map(tasks, threads, [&](std::size_t i) {
          std::optional<std::int64_t> hit = cache.lookup_opt(key(i));
          r.counter("speculate.rounds").add(1);
          r.counter("speculate.probes").add(i % 3);
          return hit.value_or(-1);
        });
    Snapshot snap = r.snapshot();
    cache.configure(false, 64);  // leave the global cache disabled
    for (std::size_t i = 0; i < tasks; ++i)
      EXPECT_EQ(values[i], static_cast<std::int64_t>(i));
    return snap;
  };
  Snapshot single = run(1);
  Snapshot parallel = run(4);
  EXPECT_EQ(single.exec_counters.at("cache.inserts"), 16u);
  EXPECT_EQ(single.exec_counters.at("cache.hits"), 16u);
  EXPECT_EQ(single.exec_counters.at("speculate.rounds"), 16u);
  EXPECT_EQ(single, parallel);  // exec maps included: fully pinned workload
  EXPECT_EQ(single.to_json(), parallel.to_json());
  EXPECT_EQ(single.to_json(false, /*include_exec=*/true),
            parallel.to_json(false, /*include_exec=*/true));
  Registry::global().reset();
}

#if MINMACH_OBS_ENABLED
// The memory-substrate counters (mem.bigint_spill / mem.arena_bytes)
// tally logical allocation *requests* -- a pure function
// of the workload, independent of which worker thread serves a task or how
// warm that worker's arena is. Merged across parallel_map's per-thread
// drain, the totals must therefore be byte-identical at any thread count,
// exactly like the arithmetic tallies above (DESIGN.md §10).
TEST(Metrics, MemTalliesMergeDeterministicallyAcrossThreadCounts) {
  auto run = [](std::size_t threads) {
    Registry& r = Registry::global();
    (void)r.snapshot();  // drain any residue left on the calling thread
    r.reset();
    bench::parallel_map(12, threads, [](std::size_t i) {
      // Per-task BigInt work past the inline limb buffer: deterministic
      // spill and arena-scratch tallies that depend only on i.
      BigInt v(1);
      for (std::size_t k = 0; k < 8 + (i % 4) * 4; ++k)
        v *= BigInt((std::int64_t{1} << 61) + static_cast<std::int64_t>(i));
      (void)BigInt::gcd(v, v + BigInt(1));
      return v.bit_length();
    });
    return r.snapshot();
  };
  Snapshot single = run(1);
  Snapshot parallel = run(4);
  // mem.* is execution-class (is_exec_metric), so the tallies live in the
  // snapshot's exec maps -- still thread-count invariant for this workload,
  // because logical allocation requests are a pure function of the tasks.
  EXPECT_EQ(single.exec_counters.at("mem.bigint_spill"),
            parallel.exec_counters.at("mem.bigint_spill"));
  EXPECT_EQ(single.exec_counters.at("mem.arena_bytes"),
            parallel.exec_counters.at("mem.arena_bytes"));
  EXPECT_EQ(single, parallel);
  EXPECT_EQ(single.to_json(), parallel.to_json());
  // The workload really exercised the substrate.
  EXPECT_GT(single.exec_counters.at("mem.bigint_spill"), 0u);
  EXPECT_GT(single.exec_counters.at("mem.arena_bytes"), 0u);
  Registry::global().reset();
}

TEST(Metrics, HotTalliesDrainIntoRegistry) {
  Registry& r = Registry::global();
  r.reset();
  MINMACH_OBS_TALLY(rat_fast_ops);
  MINMACH_OBS_TALLY(rat_fast_ops);
  MINMACH_OBS_TALLY(bigint_promotions);
  // snapshot() drains the calling thread first. rat.* / bigint.* are
  // execution-class names, so they surface in exec_counters.
  Snapshot snap = r.snapshot();
  EXPECT_EQ(snap.exec_counters.at("rat.fast_ops"), 2u);
  EXPECT_EQ(snap.exec_counters.at("bigint.promotions"), 1u);
  // Drained: a second snapshot sees no double counting.
  EXPECT_EQ(r.snapshot().exec_counters.at("rat.fast_ops"), 2u);

  // Real arithmetic feeds the tallies: a small-tier Rat addition takes the
  // fast path.
  r.reset();
  Rat x(1, 3);
  x += Rat(1, 6);
  EXPECT_EQ(x, Rat(1, 2));
  EXPECT_GE(r.snapshot().exec_counters.at("rat.fast_ops"), 1u);
  r.reset();
}
#endif

// ---- tracing ------------------------------------------------------------

TEST(Trace, JsonlEventsAreOrderedAndTyped) {
  std::ostringstream os;
  {
    TraceSink sink(os);
    TraceSink::set_global(&sink);
    EXPECT_TRUE(trace_enabled());
    trace_event("sim", "release",
                {{"t", Rat(1, 2)}, {"job", 3u}, {"ok", true}});
    trace_event("oracle", "probe", {{"m", std::int64_t{-1}}, {"r", 0.25}});
    EXPECT_EQ(sink.events_written(), 2u);
    TraceSink::set_global(nullptr);
  }
  EXPECT_FALSE(trace_enabled());
  trace_event("sim", "dropped", {});  // no sink installed: no-op

  std::istringstream lines(os.str());
  std::string line;
  std::uint64_t expected_seq = 0;
  while (std::getline(lines, line)) {
    JsonValue v = parse_json(line);
    ASSERT_TRUE(v.is_object());
    EXPECT_EQ(v.members[0].first, "seq");
    EXPECT_EQ(v.members[1].first, "cat");
    EXPECT_EQ(v.members[2].first, "ev");
    EXPECT_EQ(v.find("seq")->literal, std::to_string(expected_seq));
    ++expected_seq;
  }
  EXPECT_EQ(expected_seq, 2u);
  JsonValue first = parse_json(os.str().substr(0, os.str().find('\n')));
  EXPECT_EQ(first.find("t")->text, "1/2");  // exact rational, not a float
  EXPECT_EQ(first.find("job")->literal, "3");
  EXPECT_TRUE(first.find("ok")->boolean);
}

TEST(Trace, ChromeExportHasOneTrackPerMachine) {
  Instance in;
  in.add_job({Rat(0), Rat(2), Rat(1)});
  in.add_job({Rat(0), Rat(2), Rat(2)});
  Schedule s;
  s.add_slot(0, Rat(0), Rat(1), 0);
  s.add_slot(1, Rat(0), Rat(2), 1);
  s.canonicalize();

  std::ostringstream os;
  write_chrome_trace(os, in, s, "unit test", /*microseconds_per_unit=*/1000.0);
  JsonValue v = parse_json(os.str());
  const JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::set<std::string> tids;
  std::size_t complete_events = 0;
  for (const JsonValue& e : events->items) {
    const std::string& phase = e.find("ph")->text;
    if (phase == "X") {
      ++complete_events;
      tids.insert(e.find("tid")->literal);
      // Exact times ride along in args.
      ASSERT_NE(e.find("args"), nullptr);
      EXPECT_NE(e.find("args")->find("start"), nullptr);
    }
  }
  EXPECT_EQ(complete_events, 2u);  // one slot per machine above
  EXPECT_EQ(tids.size(), 2u);      // one track per machine
  // Slot [0,1) at 1000 us/unit: dur == 1000.
  bool found_duration = false;
  for (const JsonValue& e : events->items) {
    if (e.find("ph")->text == "X" && e.find("dur")->literal == "1000")
      found_duration = true;
  }
  EXPECT_TRUE(found_duration);
}

// ---- run reports --------------------------------------------------------

TEST(Report, JsonShapeAndCheckAggregation) {
  RunReport report;
  report.experiment = "unit";
  report.claim = "claim";
  report.config.emplace_back("seed", "7");
  report.tables.push_back({"t", {"a", "b"}, {{"1", "2"}}});
  report.checks.push_back({"bound holds", "3", "4", true});
  EXPECT_TRUE(report.all_checks_ok());
  report.checks.push_back({"bound fails", "5", "4", false});
  EXPECT_FALSE(report.all_checks_ok());

  JsonValue v = parse_json(report.to_json());
  EXPECT_EQ(v.find("schema")->text, kReportSchema);
  EXPECT_EQ(v.members[0].first, "schema");
  EXPECT_EQ(v.find("experiment")->text, "unit");
  EXPECT_EQ(v.find("config")->find("seed")->text, "7");
  EXPECT_EQ(v.find("tables")->items[0].find("title")->text, "t");
  EXPECT_FALSE(v.find("checks_ok")->boolean);
  ASSERT_NE(v.find("metrics"), nullptr);
  EXPECT_NE(v.find("metrics")->find("counters"), nullptr);
}

}  // namespace
}  // namespace minmach::obs
