#include "minmach/adversary/agreeable_lb.hpp"

#include <stdexcept>
#include <utility>

#include "minmach/flow/feasibility.hpp"

namespace minmach {

namespace {

// Could ANY schedule on `budget` machines, starting from the opponent's
// current remaining workload, absorb `count` zero-laxity unit jobs due at
// now + 1? Exact max-flow test; if it says no, the opponent (whatever its
// policy) must miss once the threat is released.
bool can_absorb_threat(const Simulator& sim, std::int64_t budget,
                       std::int64_t count) {
  Instance snapshot;
  for (JobId id = 0; id < sim.job_count(); ++id) {
    if (!sim.released(id) || sim.finished(id) || sim.missed(id)) continue;
    Rat rem = sim.remaining(id);
    if (rem.is_zero()) continue;
    snapshot.add_job({sim.now(), sim.job(id).deadline, std::move(rem)});
  }
  for (std::int64_t i = 0; i < count; ++i)
    snapshot.add_job({sim.now(), sim.now() + Rat(1), Rat(1)});
  return feasible_migratory(snapshot, budget);
}

}  // namespace

AgreeableLbResult run_agreeable_lower_bound(OnlinePolicy& policy,
                                            const AgreeableLbParams& params) {
  if (params.m <= 0)
    throw std::invalid_argument("agreeable_lb: m must be positive");
  Rat type2_count_rat = params.alpha * Rat(params.m);
  if (!type2_count_rat.is_integer())
    throw std::invalid_argument("agreeable_lb: alpha * m must be integral");
  const std::int64_t type2_count = type2_count_rat.floor().to_int64();
  const std::int64_t threat_count = params.m - type2_count;  // (1-alpha) m
  const Rat round_length = Rat(1) + params.alpha;

  Simulator sim(policy);
  AgreeableLbResult result;

  Rat t(0);
  for (int round = 0; round < params.max_rounds && !result.missed; ++round) {
    // Wave at t: m type-1 jobs (d = t+1+alpha) and alpha*m type-2 (d = t+2).
    for (std::int64_t i = 0; i < params.m; ++i) {
      Job j;
      j.release = t;
      j.deadline = t + round_length;
      j.processing = Rat(1);
      sim.submit(j);
    }
    for (std::int64_t i = 0; i < type2_count; ++i) {
      Job j;
      j.release = t;
      j.deadline = t + Rat(2);
      j.processing = Rat(1);
      sim.submit(j);
    }

    // The t+1 branch point: release the zero-laxity threat wave iff the
    // opponent can no longer absorb it on its budget.
    sim.run_until(t + Rat(1));
    if (sim.any_missed()) {
      result.missed = true;
      break;
    }
    if (!can_absorb_threat(sim, params.opponent_budget, threat_count)) {
      result.threat_released = true;
      for (std::int64_t i = 0; i < threat_count; ++i) {
        Job j;
        j.release = t + Rat(1);
        j.deadline = t + Rat(2);
        j.processing = Rat(1);
        sim.submit(j);
      }
      sim.run_until(t + Rat(2));
      result.missed = sim.any_missed();
      break;
    }

    t += round_length;
    sim.run_until(t);
    if (sim.any_missed()) {
      result.missed = true;
      break;
    }
    result.rounds_survived = round + 1;
    Rat backlog(0);
    for (JobId id = 0; id < sim.job_count(); ++id) {
      if (sim.released(id) && !sim.finished(id) && !sim.missed(id))
        backlog += sim.remaining(id);
    }
    result.backlog.push_back(backlog);
  }

  // Let the tail play out (type-2 deadlines extend past the last round).
  if (!result.missed) {
    sim.run_to_completion();
    if (sim.any_missed()) result.missed = true;
  }

  result.instance = sim.instance();
  result.jobs = sim.instance().size();
  return result;
}

}  // namespace minmach
