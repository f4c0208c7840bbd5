// Shared pieces of the repository benchmark: command-line arguments, the
// per-run outcome (answer checks plus metrics), the in-memory span
// recorder used by traced runs, and small measurement helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point start,
                                       Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rev = "unknown";    // revision label passed by run.py
  std::string out_dir = ".";      // where a traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports: every operation attempted, every wrong or
// refused answer, the metrics of the requested mode (end-to-end untraced,
// per-layer traced), and extra stamp fields such as the sample count behind
// each percentile.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> stamp;  // key, JSON text

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, double value);
  void note(std::string key, const std::vector<double>& values);
  // Counts one wrong or refused answer and explains it on stderr.
  void fail(const std::string& what);
};

// Spans of a traced run, kept in memory and written when the run ends. A
// span has a name, start and end (ns since the recorder was created), the
// index of the span open when it began (-1 for a root), and the id of the
// game, instance or tick it belongs to.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t id;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  // Total duration of the spans with this name.
  [[nodiscard]] double total_ms(std::string_view name) const;
  // Total duration of the root spans: the traced time the layers cover.
  [[nodiscard]] double root_ms() const;
  // Writes {"stamp": ..., "spans": [[name, start_ns, end_ns, parent, id]...]}.
  void write_json(const std::string& path, const std::string& stamp) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// Shortest text that reads back as the same double ("null" if not finite).
[[nodiscard]] std::string json_number(double value);

// Linear interpolation between closest ranks, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();
// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] std::size_t cpu_count();

// Registry counters at one moment, for per-layer deltas. Covers every count
// metric the benchmark reports, on every workload: a layer a workload never
// reaches reads 0.
struct Counts {
  static Counts now();
  std::uint64_t get(std::string_view name) const;

  std::vector<std::pair<std::string, std::uint64_t>> values;
};

// Adds every per-layer count metric, as (after - before) / passes, plus
// util.rat_slow_share.
void add_count_metrics(Outcome& out, const Counts& before, const Counts& after,
                       double passes);

// Adds trace.overhead_share -- the traced passes' operation time over that
// of the same untraced passes, minus 1 -- and trace.coverage_share, the
// root spans' share of the traced operation time. The traced run repeats
// at most as many passes as the untraced one made.
void add_trace_shares(Outcome& out, const Tracer& tracer,
                      const std::vector<std::vector<double>>& untraced,
                      const std::vector<std::vector<double>>& traced);

// Per-layer metric names and units, in BENCHMARK.json order. A traced run
// prints all of them; one a workload does not measure reads 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

// Empties the OPT cache (a no-op while it is off, as at library defaults),
// so that no pass can be served answers computed by an earlier one.
void forget_earlier_passes();

// Runs pass(0), pass(1), ... over the same inputs until the operations they
// time add up to `seconds`, or `max_passes` have run; always at least one
// pass. Each pass returns the time (ms) of each operation, in a fixed order;
// set-up and answer checks outside those times are not counted.
template <typename Pass>
std::vector<std::vector<double>> run_passes(double seconds,
                                            std::size_t max_passes,
                                            Pass&& pass) {
  std::vector<std::vector<double>> per_pass;
  double total = 0;
  do {
    forget_earlier_passes();
    per_pass.push_back(pass(per_pass.size()));
    for (double ms : per_pass.back()) total += ms;
  } while (total < seconds * 1e3 && per_pass.size() < max_passes);
  return per_pass;
}

// Total operation time of each pass, in ms.
[[nodiscard]] std::vector<double> pass_totals(
    const std::vector<std::vector<double>>& per_pass);

// Best (lowest) time of each operation over the passes that repeated it:
// per_pass[p][i] is operation i's time in pass p. Co-tenants on a shared
// host slow whole stretches of a run (see README.md), so the end-to-end
// timings are taken over these per-operation bests.
[[nodiscard]] std::vector<double> best_of(
    const std::vector<std::vector<double>>& per_pass);

[[nodiscard]] inline double sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

// Runs `setup` once and appends its wall time in s to `samples`. Every
// workload sets up before each pass (recreating identical inputs), and
// setup_s is the median: that samples the whole run, not only the
// process's first milliseconds.
template <typename Setup>
void timed_setup(std::vector<double>& samples, Setup&& setup) {
  const Clock::time_point start = Clock::now();
  setup();
  samples.push_back(ms_between(start, Clock::now()) / 1e3);
}

Outcome run_adversary_game(const Args& args, Tracer* tracer);
Outcome run_batch_opt(const Args& args, Tracer* tracer);
Outcome run_session_stream(const Args& args, Tracer* tracer);

}  // namespace perfbench
