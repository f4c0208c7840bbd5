#include "minmach/adversary/strong_lb.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "minmach/obs/metrics.hpp"
#include "minmach/obs/trace.hpp"
#include "minmach/sim/engine.hpp"

namespace minmach {

namespace {

class StrongLbGame {
 public:
  StrongLbGame(OnlinePolicy& policy, MachineOfFn machine_of,
               const StrongLbParams& params)
      : machine_of_fn_(std::move(machine_of)), params_(params), sim_(policy) {
    if (!(Rat(1, 2) < params_.alpha && params_.alpha < Rat(1)))
      throw std::invalid_argument("strong_lb: alpha must be in (1/2, 1)");
    if (!(Rat(0) < params_.beta && params_.beta < Rat(1, 2)))
      throw std::invalid_argument("strong_lb: beta must be in (0, 1/2)");
    // Inequality (1): floor((2a-1)/b) * a * b > 1 - a.
    Rat windows(((Rat(2) * params_.alpha - Rat(1)) / params_.beta).floor(),
                BigInt(1));
    if (!(windows * params_.alpha * params_.beta > Rat(1) - params_.alpha))
      throw std::invalid_argument("strong_lb: (alpha, beta) violate Eq. (1)");
  }

  struct Level {
    std::vector<JobId> critical;  // on distinct machines, unfinished at t0
    Rat t0;
    Rat eps;  // offline idle margin after t0 (Lemma 2 (ii))
  };

  // Builds I_k released into [start, start + scale); sim time must be
  // `start` on entry and is `result.t0` on exit. Records the contiguous job
  // range this call (including nested levels and Case 2's j*) released, so
  // consumers can extract every level's sub-instance (StrongLbLevelSlice).
  Level build(int k, const Rat& start, const Rat& scale) {
    const std::size_t job_begin = sim_.instance().size();
    Level out = build_inner(k, start, scale);
    slices_.push_back({k, job_begin, sim_.instance().size()});
    return out;
  }

  Level build_inner(int k, const Rat& start, const Rat& scale) {
    if (k < 2) throw std::invalid_argument("strong_lb: k >= 2 required");
    // Histograms (not gauges): commutative merges keep parallel sweeps
    // byte-deterministic. den_bits tracks how fast the rescaling blows up
    // the rationals' denominators per recursion level.
    obs::Registry& registry = obs::Registry::global();
    registry.histogram("adversary.level_depth").observe(k);
    registry.histogram("adversary.den_bits")
        .observe(static_cast<std::int64_t>(scale.den().bit_length()));
    if (k == 2) return base(start, scale);

    Level prev = build(k - 1, start, scale);

    // eps' = min(eps, remaining work of each critical job at t0), observed
    // from the opponent's actual schedule (Equation (2)).
    Rat eps_prime = prev.eps;
    for (JobId id : prev.critical) {
      Rat rem = sim_.remaining(id);
      check(!rem.is_zero(), "critical job finished before its critical time");
      if (rem < eps_prime) eps_prime = std::move(rem);
    }

    // Scaled copy of I_{k-1} inside [t0, t0 + eps'/2].
    Level sub = build(k - 1, prev.t0, eps_prime / Rat(2));

    std::set<std::size_t> prev_machines = machines_of(prev.critical);
    std::set<std::size_t> sub_machines = machines_of(sub.critical);

    if (sub_machines != prev_machines) {
      // Case 1: some critical job of the copy sits on a fresh machine.
      for (JobId id : sub.critical) {
        std::size_t m = machine_of(id);
        if (!prev_machines.contains(m)) {
          obs::Registry::global().counter("adversary.case1").add();
          if (obs::trace_enabled())
            obs::trace_event("adversary", "level",
                             {{"k", k}, {"case", 1}, {"t0", sub.t0},
                              {"eps", sub.eps},
                              {"critical", prev.critical.size() + 1}});
          Level out;
          out.critical = prev.critical;
          out.critical.push_back(id);
          out.t0 = sub.t0;
          out.eps = sub.eps;
          check_distinct(out.critical);
          return out;
        }
      }
      check(false, "machine sets differ but no fresh machine found");
    }

    // Case 2: same machine set. Release j* that cannot share a machine
    // with any unfinished critical job of the copy.
    const Rat t0p = sub.t0;  // t'_0 == current sim time
    const Rat window = prev.t0 + eps_prime - t0p;  // W
    Rat min_rem;
    bool first = true;
    for (JobId id : sub.critical) {
      Rat rem = sim_.remaining(id);
      check(!rem.is_zero(), "copy's critical job finished before t'_0");
      if (first || rem < min_rem) min_rem = std::move(rem);
      first = false;
    }
    // p* in ( max(W - min_rem, W - eps'/2), W ): lower bounds forbid
    // sharing and finishing by t''_0; upper bound keeps positive laxity.
    Rat lower = Rat::max(window - min_rem, window - eps_prime / Rat(2));
    check(lower < window, "empty parameter interval for j*");
    Rat processing = (lower + window) / Rat(2);

    Job star;
    star.release = t0p;
    star.deadline = prev.t0 + eps_prime;
    star.processing = processing;
    JobId star_id = sim_.submit(star);
    const Rat t0pp = prev.t0 + eps_prime / Rat(2);  // t''_0
    sim_.run_until(t0pp);

    check(!prev_machines.contains(machine_of(star_id)),
          "opponent placed j* on a critical machine despite infeasibility");
    check(!sim_.remaining(star_id).is_zero(), "j* finished before t''_0");
    for (JobId id : prev.critical)
      check(!sim_.remaining(id).is_zero(), "old critical job finished early");

    obs::Registry::global().counter("adversary.case2").add();
    if (obs::trace_enabled())
      obs::trace_event("adversary", "level",
                       {{"k", k}, {"case", 2}, {"t0", t0pp},
                        {"eps", window - processing},
                        {"critical", prev.critical.size() + 1}});
    Level out;
    out.critical = prev.critical;
    out.critical.push_back(star_id);
    out.t0 = t0pp;
    out.eps = window - processing;  // laxity of j* = idle margin on machine 1
    check_distinct(out.critical);
    return out;
  }

  // Base gadget I_2 in [start, start + scale).
  Level base(const Rat& start, const Rat& scale) {
    obs::Registry::global().counter("adversary.base_gadgets").add();
    const Rat alpha = params_.alpha;
    const Rat beta = params_.beta;

    Job j1;
    j1.release = start;
    j1.deadline = start + scale;
    j1.processing = alpha * scale;
    JobId j1_id = sim_.submit(j1);

    const Rat a1 = j1.latest_start();   // r + (1-alpha) * scale
    const Rat short_len = beta * scale;
    sim_.run_until(a1);

    for (int i = 0; i < params_.max_short_jobs; ++i) {
      Job shortjob;
      shortjob.release = a1 + Rat(i) * short_len;
      shortjob.deadline = shortjob.release + short_len;
      shortjob.processing = alpha * short_len;
      sim_.run_until(shortjob.release);
      JobId short_id = sim_.submit(shortjob);
      // Policies commit at release; deliver the release event.
      sim_.run_until(shortjob.release);
      if (machine_of(short_id) != machine_of(j1_id)) {
        // j_2 found; critical time t_0 = a_{j2}.
        Level out;
        Rat t0 = shortjob.latest_start();
        sim_.run_until(t0);
        check(!sim_.remaining(j1_id).is_zero(), "j1 finished before t0");
        check(!sim_.remaining(short_id).is_zero(), "j2 finished before t0");
        out.critical = {j1_id, short_id};
        out.t0 = t0;
        // Offline: j2 idles [t0, t0 + (1-alpha)*beta*scale), j1 can absorb
        // up to its laxity (1-alpha)*scale; the former is smaller.
        out.eps = (Rat(1) - alpha) * short_len;
        check_distinct(out.critical);
        return out;
      }
    }
    check(false,
          "opponent kept every short job on j1's machine (infeasible by "
          "Eq. (1))");
    return {};  // unreachable
  }

  std::size_t machine_of(JobId id) const {
    auto m = machine_of_fn_(id);
    if (!m)
      throw std::logic_error("strong_lb: job has no committed machine");
    return *m;
  }

  std::set<std::size_t> machines_of(const std::vector<JobId>& ids) const {
    std::set<std::size_t> out;
    for (JobId id : ids) out.insert(machine_of(id));
    return out;
  }

  void check_distinct(const std::vector<JobId>& ids) const {
    check(machines_of(ids).size() == ids.size(),
          "critical jobs share a machine");
  }

  static void check(bool condition, const std::string& message) {
    if (!condition)
      throw std::logic_error("strong_lb invariant violated: " + message);
  }

  MachineOfFn machine_of_fn_;
  StrongLbParams params_;
  Simulator sim_;
  std::vector<StrongLbLevelSlice> slices_;
};

}  // namespace

StrongLbResult run_strong_lower_bound(OnlinePolicy& policy,
                                      const MachineOfFn& machine_of,
                                      int levels,
                                      const StrongLbParams& params) {
  if (levels < 2)
    throw std::invalid_argument("run_strong_lower_bound: levels >= 2");
  StrongLbGame game(policy, machine_of, params);
  StrongLbGame::Level top = game.build(levels, Rat(0), Rat(1));

  StrongLbResult result;
  result.critical_jobs = top.critical;
  result.critical_time = top.t0;

  // Let the opponent finish everything it can; then collect the record.
  game.sim_.run_to_completion();
  game.sim_.publish_metrics(policy.name());
  result.instance = game.sim_.instance();
  result.machines_used = game.sim_.machines_used();
  result.jobs = game.sim_.instance().size();
  result.opponent_missed_deadline = game.sim_.any_missed();
  result.level_slices = std::move(game.slices_);
  return result;
}

Instance slice_instance(const StrongLbResult& result,
                        const StrongLbLevelSlice& slice) {
  const std::vector<Job>& jobs = result.instance.jobs();
  auto begin = jobs.begin() + static_cast<std::ptrdiff_t>(slice.job_begin);
  auto end = jobs.begin() + static_cast<std::ptrdiff_t>(slice.job_end);
  return Instance(std::vector<Job>(begin, end));
}

StrongLbResult run_strong_lower_bound(NonMigratoryPolicy& policy, int levels,
                                      const StrongLbParams& params) {
  return run_strong_lower_bound(
      policy, [&policy](JobId id) { return policy.machine_of(id); }, levels,
      params);
}

StrongLbResult run_strong_lower_bound(ReservationPolicy& policy, int levels,
                                      const StrongLbParams& params) {
  return run_strong_lower_bound(
      policy, [&policy](JobId id) { return policy.machine_of(id); }, levels,
      params);
}

}  // namespace minmach
