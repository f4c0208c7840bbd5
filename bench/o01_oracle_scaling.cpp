// O1 -- oracle scaling: the segment-tree-compressed network with
// warm-started probes and the sweep load bound, as n grows.
//
// Sweeps n over --sizes, computing exact migratory OPT per instance, and
// records wall time, flow.edge_visits, probe counts, and the warm/cold
// split to --out (BENCH_oracle.json). Up to --baseline-cap jobs every OPT
// is checked against the dense reference network of
// tests/reference_oracle.hpp (a binary search of solve_migratory probes),
// whose wall time is recorded alongside. The speedups over the removed
// dense oracle mode are recorded in EXPERIMENTS.md (O1, revision 7a46103).
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/json.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/util/cli.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"
#include "tests/reference_oracle.hpp"

namespace {

struct Measurement {
  std::int64_t opt = 0;
  double wall_ms = 0.0;
  std::uint64_t edge_visits = 0;
  std::uint64_t probes = 0;
  std::uint64_t warm_probes = 0;
  std::uint64_t cold_probes = 0;
};

// One full OPT computation (build + search), with the flow/oracle counter
// deltas attributed to it.
Measurement measure(const minmach::Instance& instance) {
  using Clock = std::chrono::steady_clock;
  minmach::obs::Registry& registry = minmach::obs::Registry::global();
  minmach::obs::drain_hot_tallies();
  const std::uint64_t edges0 = registry.counter("flow.edge_visits").value();
  const std::uint64_t probes0 = registry.counter("oracle.probes").value();
  const std::uint64_t warm0 = registry.counter("oracle.warm_probes").value();
  const std::uint64_t cold0 = registry.counter("oracle.cold_probes").value();

  Measurement out;
  const Clock::time_point start = Clock::now();
  {
    minmach::FeasibilityOracle oracle(instance);
    out.opt = oracle.optimal_machines();
  }
  out.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();

  minmach::obs::drain_hot_tallies();
  out.edge_visits = registry.counter("flow.edge_visits").value() - edges0;
  out.probes = registry.counter("oracle.probes").value() - probes0;
  out.warm_probes = registry.counter("oracle.warm_probes").value() - warm0;
  out.cold_probes = registry.counter("oracle.cold_probes").value() - cold0;
  return out;
}

std::vector<std::int64_t> parse_sizes(const std::string& csv) {
  std::vector<std::int64_t> out;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) out.push_back(std::stoll(token));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace minmach;
  Cli cli(argc, argv);
  const std::string sizes_csv =
      cli.get_string("sizes", "250,500,1000,2000,4000");
  const std::int64_t baseline_cap = cli.get_int("baseline-cap", 1000);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string out_path = cli.get_string("out", "BENCH_oracle.json");
  bench::Run ctx(cli,
                 "O1: oracle scaling -- compressed network + warm probes",
                 "OPT oracle in O(n log S) edges and ~one max-flow total; "
                 "every OPT equals the dense reference network's");
  cli.check_unknown();
  const std::vector<std::int64_t> sizes = parse_sizes(sizes_csv);
  ctx.config("sizes", sizes_csv);
  ctx.config("baseline-cap", baseline_cap);
  ctx.config("seed", static_cast<std::int64_t>(seed));

  struct Row {
    std::string family;
    std::int64_t n = 0;
    Measurement fast;
    bool checked = false;        // OPT compared with the reference
    double reference_ms = 0.0;   // wall time of the reference OPT
  };
  std::vector<Row> rows;

  struct Family {
    const char* name;
    Instance (*generate)(Rng&, const GenConfig&);
    GenConfig (*config)(std::int64_t n);
  };
  const Family families[] = {
      // Unit jobs on an integer grid with windows as wide as the horizon:
      // every leaf is uncapped, so each job covers its ~S/2 in-window
      // segments with O(log S) tree edges, and the load keeps OPT ~ 8.
      {"unit-wide", gen_unit,
       [](std::int64_t n) {
         const std::int64_t horizon = std::max<std::int64_t>(4, n / 8);
         return GenConfig{static_cast<std::size_t>(n), horizon, horizon, 1};
       }},
      // General jobs with p_j a random fraction of a narrow window: most
      // in-window segments are shorter than p_j, so the compressed network
      // degrades toward dense direct edges (the warm start and sweep bound
      // still apply).
      {"general", gen_general,
       [](std::int64_t n) {
         return GenConfig{static_cast<std::size_t>(n), 2 * n,
                          std::max<std::int64_t>(8, n / 8), 2};
       }},
  };

  Table table({"family", "n", "opt", "fast ms", "fast edges", "warm/cold",
               "reference ms"});
  std::int64_t checked_rows = 0;
  for (const Family& family : families) {
    for (std::int64_t n : sizes) {
      const GenConfig config = family.config(n);
      Rng rng(seed + static_cast<std::uint64_t>(n));
      const Instance instance = family.generate(rng, config);

      Row row;
      row.family = family.name;
      row.n = n;
      row.fast = measure(instance);
      row.checked = n <= baseline_cap;
      if (row.checked) {
        using Clock = std::chrono::steady_clock;
        const Clock::time_point start = Clock::now();
        const std::int64_t reference = reference_opt(instance);
        row.reference_ms = std::chrono::duration<double, std::milli>(
                               Clock::now() - start)
                               .count();
        bench::require(reference == row.fast.opt,
                       "oracle and reference disagree on OPT");
        ++checked_rows;
      }
      rows.push_back(row);
      table.add_row({row.family, std::to_string(row.n),
                     std::to_string(row.fast.opt),
                     Table::fmt(row.fast.wall_ms, 2),
                     std::to_string(row.fast.edge_visits),
                     std::to_string(row.fast.warm_probes) + "/" +
                         std::to_string(row.fast.cold_probes),
                     row.checked ? Table::fmt(row.reference_ms, 2) : "-"});
    }
  }
  table.print(std::cout);
  ctx.table("oracle scaling", table);
  ctx.check("OPT equals the reference network's (n <= baseline-cap)",
            std::to_string(checked_rows) + " rows", "all equal", true);

  // Machine-readable record (wall times included, so this file is NOT
  // byte-deterministic -- unlike --report).
  std::ofstream os(out_path);
  bench::require(static_cast<bool>(os), "cannot open " + out_path);
  obs::JsonWriter json(os);
  json.begin_object();
  bench::write_bench_stamp(json);
  json.key("experiment").value("o01_oracle_scaling");
  json.key("seed").value(static_cast<std::int64_t>(seed));
  json.key("rows").begin_array();
  for (const Row& row : rows) {
    json.begin_object();
    json.key("family").value(row.family);
    json.key("n").value(row.n);
    json.key("opt").value(row.fast.opt);
    json.key("fast_wall_ms").value(row.fast.wall_ms);
    json.key("fast_edge_visits").value(row.fast.edge_visits);
    json.key("fast_probes").value(row.fast.probes);
    json.key("warm_probes").value(row.fast.warm_probes);
    json.key("cold_probes").value(row.fast.cold_probes);
    json.key("reference_ok").value(row.checked);
    if (row.checked) json.key("reference_wall_ms").value(row.reference_ms);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
