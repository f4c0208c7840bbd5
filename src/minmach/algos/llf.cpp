#include "minmach/algos/llf.hpp"

#include <algorithm>

namespace minmach {

Rat LlfPolicy::laxity(const Simulator& sim, JobId job) {
  return sim.job(job).deadline - sim.now() - sim.remaining(job);
}

void LlfPolicy::on_release(Simulator&, JobId) {}

void LlfPolicy::dispatch(Simulator& sim) {
  std::vector<JobId> active = sim.active_jobs();
  std::vector<std::pair<Rat, JobId>> ranked;
  ranked.reserve(active.size());
  for (JobId id : active) ranked.emplace_back(laxity(sim, id), id);
  std::sort(ranked.begin(), ranked.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    // Tie-break: waiting jobs beat running jobs (realizes the swap at a
    // laxity crossing), then smaller deadline, then id.
    const bool a_running = sim.is_running(a.second);
    const bool b_running = sim.is_running(b.second);
    if (a_running != b_running) return b_running;
    const Job& ja = sim.job(a.second);
    const Job& jb = sim.job(b.second);
    if (ja.deadline != jb.deadline) return ja.deadline < jb.deadline;
    return a.second < b.second;
  });
  if (ranked.size() > machine_budget_) ranked.resize(machine_budget_);

  std::vector<bool> selected_running(ranked.size(), false);
  std::vector<std::size_t> free_machines;
  for (std::size_t m = 0; m < machine_budget_; ++m) {
    JobId current = sim.running_on(m);
    bool keep = false;
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      if (ranked[i].second == current) {
        selected_running[i] = true;
        keep = true;
        break;
      }
    }
    if (!keep) {
      sim.set_running(m, kInvalidJob);
      free_machines.push_back(m);
    }
  }
  std::size_t next_free = 0;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (selected_running[i]) continue;
    sim.set_running(free_machines[next_free++], ranked[i].second);
  }
}

std::optional<Rat> LlfPolicy::next_wakeup(const Simulator& sim) {
  // Earliest crossing of a waiting job's (falling) laxity with a running
  // job's (constant) laxity.
  bool any_waiting = false;
  std::optional<Rat> min_waiting;
  std::optional<Rat> max_running;
  for (JobId id : sim.active_jobs()) {
    Rat lax = laxity(sim, id);
    if (sim.is_running(id)) {
      if (!max_running || *max_running < lax) max_running = lax;
    } else {
      any_waiting = true;
      if (!min_waiting || lax < *min_waiting) min_waiting = lax;
    }
  }
  std::optional<Rat> wakeup;
  if (min_waiting && max_running) {
    Rat delta = *min_waiting - *max_running;
    if (delta.is_positive()) wakeup = sim.now() + delta;
  }
  if (quantum_.is_positive() && any_waiting) {
    Rat periodic = sim.now() + quantum_;
    if (!wakeup || periodic < *wakeup) wakeup = periodic;
  }
  return wakeup;
}

std::string LlfPolicy::name() const {
  return "LLF(" + std::to_string(machine_budget_) + ")";
}

}  // namespace minmach
