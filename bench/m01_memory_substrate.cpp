// M1 -- memory substrate: arena-scratch BigInt kernels + SBO limb storage +
// pooled simulator/flow containers + work-stealing sweep scheduler.
//
// Three single-threaded families are measured, each after one untimed
// warm-up pass:
//
//   strong-lb : the Theorem 3 recursive adversary at --levels (deep Rat
//               recursion; denominators double every level). Recorded:
//               logical heap allocations (mem.bigint_spill from the obs
//               registry: a BigInt limb spill is the substrate's only heap
//               allocation -- the arena serves every temporary), physical
//               allocations, arena bytes.
//   e04-loose : the Theorem 5 pipeline sweep body (simulator-heavy).
//   e05-shrink: the Lemma 3 window-shrink sweep body (oracle-heavy).
//               Both are int64-bound and enforced registry-silent, and
//               their OPT values are checked against the dense reference
//               network of tests/reference_oracle.hpp.
//
// The ratios against the removed allocate-per-temporary mode are recorded
// in EXPERIMENTS.md (M1, revision 7a46103).
//
// Physical allocation counts (operator new interposition in this binary)
// are recorded alongside the registry deltas: the registry counts logical
// allocation events (deterministic at any thread count), the interposition
// counts every malloc the C++ runtime actually performed.
//
// A fourth section compares Chunking::kStatic against kWorkStealing on a
// deliberately skewed sweep (all expensive tasks land in worker 0's static
// range): results must be byte-identical across 1 thread, 4 static and 4
// stealing workers, and stealing must beat static on load balance
// (max_busy_share). Writes everything to --out (BENCH_memory.json).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <new>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/adversary/strong_lb.hpp"
#include "minmach/algos/loose.hpp"
#include "minmach/algos/nonmig.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/json.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"
#include "tests/reference_oracle.hpp"

// ---------------------------------------------------------------------------
// Physical allocation counter: program-wide operator new/delete replacement
// (linked only into this binary). Counts every successful allocation; the
// families read before/after deltas.
namespace {
std::atomic<std::uint64_t> g_physical_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (!p) throw std::bad_alloc();
  g_physical_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants size to be a non-zero multiple of the alignment.
  void* p = std::aligned_alloc(a, std::max(a, (size + a - 1) & ~(a - 1)));
  if (!p) throw std::bad_alloc();
  g_physical_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace minmach;

struct Measurement {
  double wall_ms = 0.0;
  std::uint64_t physical_allocs = 0;  // operator new interposition
  std::uint64_t arena_bytes = 0;      // mem.arena_bytes
  std::uint64_t bigint_spill = 0;     // mem.bigint_spill
  std::int64_t checksum = 0;          // family-defined result fingerprint
};

// Runs fn() and attributes the registry mem.* deltas and the physical
// allocation delta to it. The wall clock is the minimum over two timed
// repetitions -- the standard noise-robust estimator on a shared box; the
// counters come from the second repetition, when every pool is at steady
// state (the bodies are deterministic, so the logical tallies are
// identical across repetitions anyway).
template <typename Fn>
Measurement measure(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  obs::Registry& registry = obs::Registry::global();

  Measurement out;
  out.wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    obs::drain_hot_tallies();
    const std::uint64_t arena0 = registry.counter("mem.arena_bytes").value();
    const std::uint64_t spill0 = registry.counter("mem.bigint_spill").value();
    const std::uint64_t phys0 =
        g_physical_allocs.load(std::memory_order_relaxed);

    const Clock::time_point start = Clock::now();
    const std::int64_t checksum = fn();
    bench::require(rep == 0 || checksum == out.checksum,
                   "a family body gave different results on repetition");
    out.checksum = checksum;
    out.wall_ms = std::min(
        out.wall_ms,
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());

    obs::drain_hot_tallies();
    out.arena_bytes = registry.counter("mem.arena_bytes").value() - arena0;
    out.bigint_spill = registry.counter("mem.bigint_spill").value() - spill0;
    out.physical_allocs =
        g_physical_allocs.load(std::memory_order_relaxed) - phys0;
  }
  return out;
}

// --- family bodies: each returns a checksum of its results and is
// deterministic given its flags; the OPT families take the OPT function so
// the same body can run on the reference oracle. ---

using OptFn = std::int64_t (*)(const Instance&);

std::int64_t family_strong_lb(int levels) {
  std::int64_t sum = 0;
  FitPolicy policy(FitRule::kFirstFit, /*seed=*/123);
  StrongLbResult result = run_strong_lower_bound(policy, levels);
  sum += static_cast<std::int64_t>(result.jobs) * 1000 +
         static_cast<std::int64_t>(result.machines_used);
  return sum;
}

std::int64_t family_e04(std::uint64_t seed, std::size_t n_max, int trials,
                        OptFn opt) {
  std::int64_t sum = 0;
  const Rat alpha(1, 3);
  const Rat s(2);
  Rng rng(seed);
  for (std::size_t n = n_max / 4; n <= n_max; n *= 2) {
    for (int trial = 0; trial < trials; ++trial) {
      GenConfig config;
      config.n = n;
      config.horizon = static_cast<std::int64_t>(n);
      Instance in = gen_loose(rng, config, alpha);
      std::int64_t m = opt(in);
      LooseRun run = schedule_loose_jobs(in, alpha, s);
      sum += m * 1000 + static_cast<std::int64_t>(run.machines_used);
    }
  }
  return sum;
}

std::int64_t family_e05(std::uint64_t seed, std::size_t n, int trials,
                        OptFn opt) {
  std::int64_t sum = 0;
  const Rat gamma(1, 2);
  Rng rng(seed);
  GenConfig config;
  config.n = n;
  for (int trial = 0; trial < trials; ++trial) {
    Instance in = gen_general(rng, config);
    sum += opt(in);
    sum += opt(shrink_window_left(in, gamma));
    sum += opt(shrink_window_right(in, gamma));
  }
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int levels = static_cast<int>(cli.get_int("levels", 7));
  const std::size_t sweep_n =
      static_cast<std::size_t>(cli.get_int("sweep-n", 48));
  const int trials = static_cast<int>(cli.get_int("trials", 3));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 9));
  const std::string out_path = cli.get_string("out", "BENCH_memory.json");
  bench::Run ctx(cli, "M1: memory substrate -- arenas, SBO limbs, pooling",
                 "hot layers run allocation-free in the common case; the "
                 "work-stealing sweep stays byte-deterministic");
  cli.check_unknown();
  ctx.config("levels", static_cast<std::int64_t>(levels));
  ctx.config("sweep-n", static_cast<std::int64_t>(sweep_n));
  ctx.config("trials", static_cast<std::int64_t>(trials));
  ctx.config("seed", static_cast<std::int64_t>(seed));

  struct Row {
    std::string family;
    Measurement measured;
  };
  std::vector<Row> rows;
  // One untimed, uncounted warm-up pass per family so the measurement
  // reflects sweep steady state (pools at capacity, caches warm) rather
  // than first-call container growth; the bodies are deterministic, so the
  // warm-up runs the exact workload being measured.
  auto run_family = [&](const char* name, auto&& body) {
    (void)body();
    rows.push_back({name, measure(body)});
    return rows.back().measured.checksum;
  };
  run_family("strong-lb", [&] { return family_strong_lb(levels); });
  const std::int64_t e04 = run_family("e04-loose", [&] {
    return family_e04(seed, sweep_n, trials, optimal_migratory_machines);
  });
  const std::int64_t e05 = run_family("e05-shrink", [&] {
    return family_e05(seed, sweep_n, trials, optimal_migratory_machines);
  });
  bench::require(e04 == family_e04(seed, sweep_n, trials, reference_opt),
                 "e04-loose: OPT values diverge from the reference oracle");
  bench::require(e05 == family_e05(seed, sweep_n, trials, reference_opt),
                 "e05-shrink: OPT values diverge from the reference oracle");

  Table table({"family", "wall ms", "spills (obs)", "physical allocs",
               "arena KiB"});
  for (const Row& row : rows) {
    table.add_row({row.family, Table::fmt(row.measured.wall_ms, 2),
                   std::to_string(row.measured.bigint_spill),
                   std::to_string(row.measured.physical_allocs),
                   std::to_string(row.measured.arena_bytes >> 10)});
  }
  table.print(std::cout);
  ctx.table("memory substrate", table);

  // Acceptance. The e04/e05 sweeps are int64-bound by construction --
  // their arithmetic never promotes -- so they must stay registry-silent;
  // their OPT values were checked against the reference oracle above. The
  // BigInt-bound strong-lb family is recorded only (its ratios against the
  // removed seed replica are in EXPERIMENTS.md).
  for (const Row& row : rows) {
    if (row.family == "strong-lb") continue;
    ctx.check(row.family + ": registry-silent",
              std::to_string(row.measured.bigint_spill), "0",
              row.measured.bigint_spill == 0);
  }
  ctx.check("e04/e05: OPT values equal the reference oracle's", "equal",
            "equal", true);

  // --- scheduler comparison on a skewed sweep -------------------------------
  // 16 tasks; the 4 expensive ones all sit in worker 0's static range, so
  // static chunking serializes them on one worker while the others idle.
  // Tasks seed their own Rng from the task index, so the result vector is a
  // pure function of the index -- any schedule must reproduce it exactly.
  const std::size_t task_count = 16;
  auto skewed_task = [&](std::size_t index) -> std::int64_t {
    const bool heavy = index < 4;
    Rng rng(seed + index);
    GenConfig config;
    config.n = heavy ? sweep_n : 4;
    Instance in = gen_general(rng, config);
    return optimal_migratory_machines(in);
  };
  auto serial = bench::parallel_map_scheduled(task_count, 1, skewed_task,
                                              bench::Chunking::kStatic);
  bench::ScheduleStats static_stats;
  auto static_results = bench::parallel_map_scheduled(
      task_count, 4, skewed_task, bench::Chunking::kStatic, &static_stats);
  bench::ScheduleStats steal_stats;
  auto steal_results = bench::parallel_map_scheduled(
      task_count, 4, skewed_task, bench::Chunking::kWorkStealing,
      &steal_stats);
  bench::require(static_results == serial,
                 "static 4-thread results differ from serial");
  bench::require(steal_results == serial,
                 "work-stealing 4-thread results differ from serial");

  // Load-balance comparison in virtual time. Observed busy shares depend on
  // how the OS schedules the workers -- on a single-core host the first
  // running worker legitimately steals and executes almost everything, so
  // the share says nothing about the policy. Instead: measure each task's
  // serial cost, then replay both chunking policies with ideal workers
  // (zero steal overhead, deterministic lowest-clock-first order). The
  // resulting makespans are a property of the policy and the workload,
  // identical on any host.
  std::vector<double> task_cost(task_count);
  for (std::size_t i = 0; i < task_count; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)skewed_task(i);
    task_cost[i] =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  t0)
            .count();
  }
  const std::size_t vworkers = 4;
  auto model_makespan = [&](bool stealing) {
    struct VWorker {
      std::size_t lo, hi;
      double clock = 0.0;
      bool done = false;
    };
    std::vector<VWorker> ws(vworkers);
    for (std::size_t w = 0; w < vworkers; ++w) {
      ws[w].lo = task_count * w / vworkers;
      ws[w].hi = task_count * (w + 1) / vworkers;
    }
    double makespan = 0.0;
    while (true) {
      // Advance the worker with the smallest clock (ties: lowest id).
      std::size_t self = task_count;  // sentinel
      for (std::size_t w = 0; w < vworkers; ++w)
        if (!ws[w].done && (self == task_count || ws[w].clock < ws[self].clock))
          self = w;
      if (self == task_count) break;
      VWorker& me = ws[self];
      if (me.lo < me.hi) {
        me.clock += task_cost[me.lo++];
        makespan = std::max(makespan, me.clock);
        continue;
      }
      bool stole = false;
      if (stealing) {
        // Mirror of parallel_map_scheduled's rule: first non-empty victim
        // in scan order, take the back half.
        for (std::size_t offset = 1; offset < vworkers; ++offset) {
          VWorker& victim = ws[(self + offset) % vworkers];
          const std::size_t size = victim.hi - victim.lo;
          if (size > 0) {
            const std::size_t take = (size + 1) / 2;
            me.hi = victim.hi;
            me.lo = victim.hi - take;
            victim.hi = me.lo;
            stole = true;
            break;
          }
        }
      }
      if (!stole) me.done = true;
    }
    return makespan;
  };
  const double static_makespan = model_makespan(/*stealing=*/false);
  const double steal_makespan = model_makespan(/*stealing=*/true);

  const double static_share = static_stats.max_busy_share();
  const double steal_share = steal_stats.max_busy_share();
  Table sched({"chunking", "model makespan ms", "observed busy share",
               "steals"});
  sched.add_row({"static", Table::fmt(static_makespan, 2),
                 Table::fmt(static_share, 3), "0"});
  sched.add_row({"work-stealing", Table::fmt(steal_makespan, 2),
                 Table::fmt(steal_share, 3),
                 std::to_string(steal_stats.total_steals())});
  sched.print(std::cout);

  ctx.check("skewed sweep: results identical at 1/4 threads, both chunkings",
            "identical", "identical", true);
  ctx.check("skewed sweep: stealing happened",
            std::to_string(steal_stats.total_steals()), ">= 1",
            steal_stats.total_steals() >= 1);
  ctx.check("skewed sweep: stealing beats static on modelled makespan",
            Table::fmt(steal_makespan, 2),
            "< 0.75 * " + Table::fmt(static_makespan, 2),
            steal_makespan < 0.75 * static_makespan);

  // Machine-readable record (wall times and busy shares included, so this
  // file is NOT byte-deterministic -- unlike --report).
  std::ofstream os(out_path);
  bench::require(static_cast<bool>(os), "cannot open " + out_path);
  obs::JsonWriter json(os);
  json.begin_object();
  bench::write_bench_stamp(json);
  json.key("experiment").value("m01_memory_substrate");
  json.key("seed").value(static_cast<std::int64_t>(seed));
  json.key("families").begin_array();
  for (const Row& row : rows) {
    json.begin_object();
    json.key("family").value(row.family);
    json.key("wall_ms").value(row.measured.wall_ms);
    json.key("physical_allocs").value(row.measured.physical_allocs);
    json.key("arena_bytes").value(row.measured.arena_bytes);
    json.key("bigint_spills").value(row.measured.bigint_spill);
    json.end_object();
  }
  json.end_array();
  json.key("scheduler").begin_object();
  json.key("tasks").value(static_cast<std::int64_t>(task_count));
  json.key("static_model_makespan_ms").value(static_makespan);
  json.key("stealing_model_makespan_ms").value(steal_makespan);
  json.key("static_max_busy_share").value(static_share);
  json.key("stealing_max_busy_share").value(steal_share);
  json.key("steals").value(steal_stats.total_steals());
  json.key("deterministic").value(true);
  json.end_object();
  json.end_object();
  os << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
