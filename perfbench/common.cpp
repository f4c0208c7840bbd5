#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "minmach/obs/metrics.hpp"
#include "minmach/util/opt_cache.hpp"

namespace perfbench {

namespace {

// Count metrics read from the registry: metric name -> registry counter.
// sim.* counters are published per policy ("sim.<policy>.dispatches"), so
// those two sum over every counter with the suffix.
const std::vector<std::pair<std::string, std::string>>& count_sources() {
  static const std::vector<std::pair<std::string, std::string>> sources = {
      {"sim.dispatches", "sim.*.dispatches"},
      {"sim.preemptions", "sim.*.preemptions"},
      {"adversary.case2", "adversary.case2"},
      {"mem.bigint_spill", "mem.bigint_spill"},
      {"oracle.probes", "oracle.probes"},
      {"oracle.builds", "oracle.builds"},
      {"flow.edge_visits", "flow.edge_visits"},
      {"flow.augmenting_paths", "flow.augmenting_paths"},
      {"bounds.pack_attempts", "bounds.pack_attempts"},
      {"simd.scalar_spills", "simd.scalar_spills"},
      {"svc.coalesced", "svc.coalesced"},
      {"dyn.inserts", "dyn.inserts"},
      {"dyn.removes", "dyn.removes"},
      {"dyn.edges_patched", "dyn.edges_patched"},
      {"dyn.leaf_splits", "dyn.leaf_splits"},
      {"rat.fast_ops", "rat.fast_ops"},
      {"rat.slow_ops", "rat.slow_ops"},
  };
  return sources;
}

}  // namespace

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void Outcome::note(std::string key, double value) {
  stamp.emplace_back(std::move(key), json_number(value));
}

void Outcome::note(std::string key, const std::vector<double>& values) {
  std::string text = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    text += (i ? ", " : "") + json_number(values[i]);
  stamp.emplace_back(std::move(key), text + "]");
}

void Outcome::fail(const std::string& what) {
  ++failed;
  std::cerr << "perfbench: wrong answer: " << what << "\n";
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t id)
    : tracer_(tracer),
      index_(static_cast<std::int32_t>(tracer.spans_.size())) {
  const std::int32_t parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  tracer.spans_.push_back({name, tracer.now_ns(), 0, parent, id});
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

double Tracer::total_ms(std::string_view name) const {
  std::int64_t total = 0;
  for (const Span& span : spans_)
    if (name == span.name) total += span.end_ns - span.start_ns;
  return static_cast<double>(total) / 1e6;
}

double Tracer::root_ms() const {
  std::int64_t total = 0;
  for (const Span& span : spans_)
    if (span.parent < 0) total += span.end_ns - span.start_ns;
  return static_cast<double>(total) / 1e6;
}

void Tracer::write_json(const std::string& path,
                        const std::string& stamp) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "{\"stamp\": " << stamp << ",\n\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    os << (i ? ",\n" : "\n") << "[\"" << span.name << "\", " << span.start_ns
       << ", " << span.end_ns << ", " << span.parent << ", " << span.id << "]";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

void forget_earlier_passes() { minmach::util::OptCache::global().clear(); }

std::vector<double> pass_totals(
    const std::vector<std::vector<double>>& per_pass) {
  std::vector<double> totals;
  for (const std::vector<double>& pass : per_pass) totals.push_back(sum(pass));
  return totals;
}

std::vector<double> best_of(const std::vector<std::vector<double>>& per_pass) {
  std::vector<double> best = per_pass.front();
  for (const std::vector<double>& pass : per_pass)
    for (std::size_t i = 0; i < best.size(); ++i)
      best[i] = std::min(best[i], pass[i]);
  return best;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

Counts Counts::now() {
  const minmach::obs::Snapshot snapshot =
      minmach::obs::Registry::global().snapshot();
  Counts out;
  for (const auto& [metric, source] : count_sources()) {
    std::uint64_t total = 0;
    const auto add_matches = [&](const auto& counters) {
      if (source.rfind("sim.*.", 0) == 0) {
        const std::string suffix = source.substr(5);  // ".dispatches"
        for (const auto& [name, value] : counters)
          if (name.rfind("sim.", 0) == 0 && name.size() > suffix.size() &&
              name.compare(name.size() - suffix.size(), suffix.size(),
                           suffix) == 0)
            total += value;
      } else if (auto it = counters.find(source); it != counters.end()) {
        total += it->second;
      }
    };
    add_matches(snapshot.counters);
    add_matches(snapshot.exec_counters);
    out.values.emplace_back(metric, total);
  }
  return out;
}

std::uint64_t Counts::get(std::string_view name) const {
  for (const auto& [metric, value] : values)
    if (metric == name) return value;
  throw std::logic_error("perfbench: unknown count " + std::string(name));
}

void add_count_metrics(Outcome& out, const Counts& before, const Counts& after,
                       double passes) {
  for (const auto& [name, value] : after.values) {
    if (name.rfind("rat.", 0) == 0) continue;
    out.metric(name, static_cast<double>(value - before.get(name)) / passes,
               "count");
  }
  const double fast = static_cast<double>(after.get("rat.fast_ops") -
                                          before.get("rat.fast_ops"));
  const double slow = static_cast<double>(after.get("rat.slow_ops") -
                                          before.get("rat.slow_ops"));
  out.metric("util.rat_slow_share", fast + slow > 0 ? slow / (fast + slow) : 0,
             "share");
}

void add_trace_shares(Outcome& out, const Tracer& tracer,
                      const std::vector<std::vector<double>>& untraced,
                      const std::vector<std::vector<double>>& traced) {
  double traced_ms = 0;
  double untraced_ms = 0;
  for (std::size_t p = 0; p < traced.size(); ++p) {
    traced_ms += sum(traced[p]);
    untraced_ms += sum(untraced[p]);
  }
  out.metric("trace.overhead_share", traced_ms / untraced_ms - 1, "share");
  out.metric("trace.coverage_share", tracer.root_ms() / traced_ms, "share");
  out.note("traced_passes", static_cast<double>(traced.size()));
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"adversary.game_ms", "ms"},
      {"algos.release_ms", "ms"},
      {"algos.dispatch_ms", "ms"},
      {"algos.other_ms", "ms"},
      {"sim.self_ms", "ms"},
      {"flow.certify_ms", "ms"},
      {"sim.dispatches", "count"},
      {"sim.preemptions", "count"},
      {"adversary.case2", "count"},
      {"util.rat_slow_share", "share"},
      {"mem.bigint_spill", "count"},
      {"core.normalize_ms", "ms"},
      {"bounds.sandwich_ms", "ms"},
      {"flow.search_ms", "ms"},
      {"bounds.pinched_share", "share"},
      {"oracle.probes", "count"},
      {"oracle.builds", "count"},
      {"flow.edge_visits", "count"},
      {"flow.augmenting_paths", "count"},
      {"bounds.pack_attempts", "count"},
      {"simd.scalar_spills", "count"},
      {"svc.edit_ms", "ms"},
      {"flow.splice_ms", "ms"},
      {"flow.query_ms", "ms"},
      {"svc.parallel_efficiency", "share"},
      {"svc.coalesced", "count"},
      {"dyn.inserts", "count"},
      {"dyn.removes", "count"},
      {"dyn.edges_patched", "count"},
      {"dyn.leaf_splits", "count"},
      {"trace.overhead_share", "share"},
      {"trace.coverage_share", "share"},
  };
  return metrics;
}

}  // namespace perfbench
