// batch_opt: exact migratory OPT of independently generated n = 2000
// instances at library defaults, one fresh oracle each. The bound tier
// answers most general and unit-wide instances without a flow probe; the
// tight family keeps the cold static-network max-flow on the tail.
#include <cstdint>
#include <stdexcept>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/rng.hpp"

namespace perfbench {

namespace {

using namespace minmach;

constexpr std::int64_t kJobs = 2000;
// Instances in the pool every pass answers, rotating through the three
// families. 200 leave 10 samples beyond the p95 tail.
constexpr std::size_t kPool = 200;

// o01's general and unit-wide families at n = 2000, and gen_tight with
// alpha = 1/2 on the general family's grid.
Instance generate(std::uint64_t seed, std::size_t index) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + index + 1);
  const GenConfig general{kJobs, 2 * kJobs, kJobs / 8, 2};
  switch (index % 3) {
    case 0: return gen_general(rng, general);
    case 1: return gen_unit(rng, GenConfig{kJobs, kJobs / 8, kJobs / 8, 1});
    default: return gen_tight(rng, general, Rat(1, 2));
  }
}

const char* family_name(std::size_t index) {
  static const char* const names[] = {"general", "unit-wide", "tight"};
  return names[index % 3];
}

}  // namespace
Outcome run_batch_opt(const Args& args, Tracer* tracer) {
  Outcome out;
  // Set-up: generating the pool. Every pass answers the whole pool, one
  // fresh oracle per instance.
  std::vector<Instance> pool;
  std::vector<double> setups;
  const auto set_up = [&] {
    pool.clear();
    for (std::size_t i = 0; i < kPool; ++i) pool.push_back(generate(args.seed, i));
  };
  std::vector<std::vector<std::int64_t>> answers;
  const std::vector<std::vector<double>> per_pass =
      run_passes(args.seconds, SIZE_MAX, [&](std::size_t) {
        timed_setup(setups, set_up);
        std::vector<std::int64_t>& opts = answers.emplace_back();
        std::vector<double> ms;
        for (const Instance& instance : pool) {
          const Clock::time_point start = Clock::now();
          FeasibilityOracle oracle(instance);
          opts.push_back(oracle.optimal_machines());
          ms.push_back(ms_between(start, Clock::now()));
        }
        return ms;
      });
  const double rss = peak_rss_mb();
  const std::vector<double> best = best_of(per_pass);
  out.attempted = answers.size() * kPool;

  // Answer checks, outside the timed passes: every pass agrees with the
  // first; each OPT is feasible and refused one machine below; and the
  // first unit-wide instance gets an OPT-machine witness that core/validate
  // accepts. (A general or tight witness at n = 2000 holds a dense
  // allocation of several hundred MB, so those families are checked by the
  // two one-shot probes only.)
  const std::vector<std::int64_t>& reference = answers.front();
  for (std::size_t i = 0; i < kPool; ++i) {
    const std::string where = "instance " + std::to_string(i) + " (" +
                              family_name(i) + ", OPT " +
                              std::to_string(reference[i]) + ")";
    for (std::size_t p = 1; p < answers.size(); ++p)
      if (answers[p][i] != reference[i])
        out.fail(where + ": pass " + std::to_string(p) + " answered " +
                 std::to_string(answers[p][i]));
    try {
      if (!feasible_migratory(pool[i], reference[i]))
        out.fail(where + ": infeasible on OPT machines");
      if (feasible_migratory(pool[i], reference[i] - 1))
        out.fail(where + ": feasible on OPT - 1 machines");
      if (i == 1) {
        const Schedule witness =
            optimal_migratory_schedule(pool[i], reference[i]);
        const ValidationResult valid = validate(pool[i], witness);
        if (!valid.ok) out.fail(where + ": witness invalid: " + valid.summary());
      }
    } catch (const std::exception& error) {
      out.fail(where + ": refused: " + error.what());
    }
  }
  out.note("instances_per_pass", static_cast<double>(kPool));
  out.note("setup_s_samples", setups);
  out.note("pass_ms", pass_totals(per_pass));
  out.note("latency_samples", static_cast<double>(best.size()));

  if (!tracer) {
    out.metric("setup_s", median(setups), "s");
    out.metric("throughput_per_s", kPool / (sum(best) / 1e3), "1/s");
    out.metric("latency_p50_ms", percentile(best, 0.5), "ms");
    out.metric("latency_tail_ms", percentile(best, 0.95), "ms");
    out.metric("peak_rss_mb", rss, "MB");
    out.note("latency_tail_percentile", 95.0);
    return out;
  }

  // Traced passes: the same calls split into oracle construction, the
  // memoized bound sandwich, and the remaining OPT search.
  const Counts before = Counts::now();
  std::uint64_t pinched = 0;
  const std::vector<std::vector<double>> traced =
      run_passes(args.seconds, per_pass.size(), [&](std::size_t p) {
        std::vector<double> ms;
        for (std::size_t i = 0; i < kPool; ++i) {
          const std::uint64_t id = p * kPool + i;
          const Clock::time_point start = Clock::now();
          std::optional<FeasibilityOracle> oracle;
          {
            Tracer::Scope span(*tracer, "core.normalize", id);
            oracle.emplace(pool[i]);
          }
          {
            Tracer::Scope span(*tracer, "bounds.sandwich", id);
            (void)oracle->bound_sandwich();
          }
          std::int64_t opt = 0;
          {
            Tracer::Scope span(*tracer, "flow.search", id);
            opt = oracle->optimal_machines();
          }
          ms.push_back(ms_between(start, Clock::now()));
          if (oracle->probes_executed() == 0) ++pinched;
          if (opt != reference[i])
            out.fail("traced instance " + std::to_string(i) + " answered " +
                     std::to_string(opt) + ", untraced " +
                     std::to_string(reference[i]));
        }
        out.attempted += kPool;
        return ms;
      });
  const Counts after = Counts::now();
  const double n = static_cast<double>(traced.size() * kPool);
  out.metric("core.normalize_ms", tracer->total_ms("core.normalize") / n, "ms");
  out.metric("bounds.sandwich_ms", tracer->total_ms("bounds.sandwich") / n,
             "ms");
  out.metric("flow.search_ms", tracer->total_ms("flow.search") / n, "ms");
  out.metric("bounds.pinched_share", static_cast<double>(pinched) / n, "share");
  add_count_metrics(out, before, after, n);
  add_trace_shares(out, *tracer, per_pass, traced);
  return out;
}

}  // namespace perfbench
