// The repository benchmark: runs one workload against libminmach at library
// defaults and prints its metrics. See README.md in this directory.
//
//   perfbench --workload <adversary_game|batch_opt|session_stream>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--rev <label>] [--out-dir <dir>]
//
// The last line of stdout is the result object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer metrics of a traced run (whose spans go to
// <out-dir>/spans-<workload>-<seed>.json).
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "common.hpp"
#include "minmach/core/bounds.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/util/opt_cache.hpp"
#include "minmach/util/simd.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <adversary_game|batch_opt|"
               "session_stream> --seed <n> --seconds <s> --trace <0|1> "
               "[--rev <label>] [--out-dir <dir>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      usage("malformed argument '" + key + "'");
    flags[key.substr(2)] = argv[i + 1];
  }
  Args args;
  try {
    for (const auto& [key, value] : flags) {
      if (key == "workload") args.workload = value;
      else if (key == "seed") args.seed = std::stoull(value);
      else if (key == "seconds") args.seconds = std::stod(value);
      else if (key == "trace") args.trace = std::stoi(value) != 0;
      else if (key == "rev") args.rev = value;
      else if (key == "out-dir") args.out_dir = value;
      else usage("unknown flag --" + key);
    }
  } catch (const std::exception&) {
    usage("bad flag value");
  }
  if (args.seconds <= 0) usage("--seconds must be positive");
  return args;
}

const std::set<std::string>& end_to_end_metrics() {
  static const std::set<std::string> names = {
      "setup_s", "throughput_per_s", "latency_p50_ms", "latency_tail_ms",
      "peak_rss_mb"};
  return names;
}

// Every per-layer metric in BENCHMARK.json order; those the workload did
// not measure (layers it never reaches) read 0.
std::vector<Metric> complete_per_layer(const std::vector<Metric>& measured) {
  std::map<std::string, double> by_name;
  for (const Metric& m : measured) by_name[m.name] = m.value;
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = by_name.find(name);
    out.push_back({name, it == by_name.end() ? 0.0 : it->second, unit});
    if (it != by_name.end()) by_name.erase(it);
  }
  if (!by_name.empty())
    throw std::logic_error("unlisted per-layer metric " + by_name.begin()->first);
  return out;
}

// Counters of the modules no workload reaches at library defaults: the OPT
// cache (off), flow/query speculation (no product caller) and store. The
// stamp records them so that a run shows they stayed at 0.
std::string unreached_json() {
  const minmach::obs::Snapshot snapshot =
      minmach::obs::Registry::global().snapshot();
  std::string json = "{";
  for (const char* name :
       {"cache.fingerprints", "cache.inserts", "speculate.rounds",
        "speculate.probes", "store.corpus_zero_copy", "store.mmap_bytes",
        "store.hits_disk", "store.wal_appends"}) {
    std::uint64_t value = 0;
    for (const auto* counters : {&snapshot.counters, &snapshot.exec_counters})
      if (const auto it = counters->find(name); it != counters->end())
        value += it->second;
    json += std::string(json.size() > 1 ? ", " : "") + "\"" + name +
            "\": " + std::to_string(value);
  }
  return json + "}";
}

std::string stamp_json(const Args& args, const Outcome& out) {
  std::ostringstream os;
  const auto text = [](const std::string& s) { return "\"" + s + "\""; };
  namespace simd = minmach::util::simd;
  os << "{\"workload\": " << text(args.workload) << ", \"seed\": " << args.seed
     << ", \"seconds\": " << json_number(args.seconds)
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"git_rev\": " << text(args.rev)
     << ", \"build_type\": " << text(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << text(PERFBENCH_COMPILER)
     << ", \"nproc\": " << cpu_count()
     << ", \"simd_mode\": " << text(simd::mode_name(simd::mode()))
     << ", \"simd_active\": " << (simd::active() ? "true" : "false")
     << ", \"bounds_tier\": "
     << (minmach::bounds_tier_enabled() ? "true" : "false")
     << ", \"opt_cache\": "
     << (minmach::util::OptCache::global().enabled() ? "true" : "false")
     << ", \"error_rate\": "
     << json_number(static_cast<double>(out.failed) /
                    static_cast<double>(std::max<std::uint64_t>(1, out.attempted)));
  for (const auto& [key, value] : out.stamp) os << ", " << text(key) << ": " << value;
  os << ", \"unreached_counts\": " << unreached_json() << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Tracer tracer;
  Tracer* traced = args.trace ? &tracer : nullptr;
  Outcome out;
  if (args.workload == "adversary_game") out = run_adversary_game(args, traced);
  else if (args.workload == "batch_opt") out = run_batch_opt(args, traced);
  else if (args.workload == "session_stream") out = run_session_stream(args, traced);
  else usage("unknown workload '" + args.workload + "'");

  std::vector<Metric> metrics = out.metrics;
  if (args.trace) {
    metrics = complete_per_layer(metrics);
  } else {
    for (const Metric& m : metrics)
      if (!end_to_end_metrics().count(m.name))
        throw std::logic_error("unlisted end-to-end metric " + m.name);
    if (metrics.size() != end_to_end_metrics().size())
      throw std::logic_error("missing end-to-end metric");
  }

  const std::string stamp = stamp_json(args, out);
  if (args.trace)
    tracer.write_json(args.out_dir + "/spans-" + args.workload + "-" +
                          std::to_string(args.seed) + ".json",
                      stamp);

  for (const Metric& m : metrics)
    std::cout << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  std::cout << "stamp: " << stamp << "\n";
  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return 0;
}
