#include "minmach/algos/nonmig.hpp"

#include <algorithm>
#include <stdexcept>


namespace minmach {

std::size_t NonMigratoryPolicy::insert_position(const Profile& profile,
                                                const Rat& deadline,
                                                JobId job) {
  auto after = std::upper_bound(
      profile.begin(), profile.end(), deadline,
      [job](const Rat& d, const ProfileEntry& entry) {
        return d < entry.deadline || (d == entry.deadline && job < entry.job);
      });
  return static_cast<std::size_t>(after - profile.begin());
}

Rat NonMigratoryPolicy::slack_before(const Profile& profile, std::size_t pos,
                                     const Rat& deadline,
                                     const Simulator& sim) {
  if (pos == 0) return (deadline - sim.now()) * sim.speed();
  const ProfileEntry& prev = profile[pos - 1];
  Rat slack = (deadline - prev.deadline) * sim.speed();
  slack += prev.slack;
  return slack;
}

void NonMigratoryPolicy::on_release(Simulator& sim, JobId job) {
  std::size_t machine = choose_machine(sim, job);
  if (machine >= profiles_.size()) profiles_.resize(machine + 1);
  Profile& profile = profiles_[machine];
  // At its release the job's remaining work is its processing time.
  const Rat& deadline = sim.job(job).deadline;
  const Rat& work = sim.job(job).processing;
  const std::size_t pos = insert_position(profile, deadline, job);
  Rat slack = slack_before(profile, pos, deadline, sim);
  slack -= work;
  for (std::size_t i = pos; i < profile.size(); ++i) profile[i].slack -= work;
  profile.insert(profile.begin() + static_cast<std::ptrdiff_t>(pos),
                 {deadline, job, std::move(slack)});
  if (job >= machine_by_job_.size()) machine_by_job_.resize(job + 1);
  machine_by_job_[job] = machine;
}

void NonMigratoryPolicy::remove(std::size_t machine, JobId job,
                                const Rat& leftover) {
  Profile& profile = profiles_[machine];
  // The dispatcher runs the head, so completions and misses find it first.
  auto it = std::find_if(profile.begin(), profile.end(),
                         [job](const ProfileEntry& e) { return e.job == job; });
  if (!leftover.is_zero())
    for (auto later = it + 1; later != profile.end(); ++later)
      later->slack += leftover;
  profile.erase(it);
}

// Every finished or missed job was released, hence committed and profiled.
void NonMigratoryPolicy::on_complete(Simulator&, JobId job) {
  remove(*machine_by_job_[job], job, Rat(0));
}

void NonMigratoryPolicy::on_miss(Simulator& sim, JobId job) {
  remove(*machine_by_job_[job], job, sim.remaining(job));
}

void NonMigratoryPolicy::dispatch(Simulator& sim) {
  for (std::size_t m = 0; m < profiles_.size(); ++m)
    sim.set_running(m, profiles_[m].empty() ? kInvalidJob
                                            : profiles_[m].front().job);
}

std::optional<std::size_t> NonMigratoryPolicy::machine_of(JobId job) const {
  if (job >= machine_by_job_.size()) return std::nullopt;
  return machine_by_job_[job];
}

bool NonMigratoryPolicy::machine_can_take(const Simulator& sim,
                                          std::size_t machine,
                                          JobId job) const {
  static const Profile kEmpty;
  const Profile& profile =
      machine < profiles_.size() ? profiles_[machine] : kEmpty;
  // Prefix-demand test: the slacks before the insertion point stay as they
  // are; the new entry's slack and every later one drop by the job's work.
  const Rat& deadline = sim.job(job).deadline;
  const Rat& work = sim.job(job).processing;
  const std::size_t pos = insert_position(profile, deadline, job);
  for (std::size_t i = 0; i < pos; ++i)
    if (profile[i].slack.is_negative()) return false;
  for (std::size_t i = pos; i < profile.size(); ++i)
    if (profile[i].slack < work) return false;
  return slack_before(profile, pos, deadline, sim) >= work;
}

std::vector<std::size_t> NonMigratoryPolicy::feasible_machines(
    const Simulator& sim, JobId job) const {
  std::vector<std::size_t> out;
  for (std::size_t m = 0; m < profiles_.size(); ++m) {
    if (machine_can_take(sim, m, job)) out.push_back(m);
  }
  return out;
}

const std::vector<std::size_t>& NonMigratoryPolicy::feasible_machines_pooled(
    const Simulator& sim, JobId job) const {
  feasible_scratch_.clear();
  for (std::size_t m = 0; m < profiles_.size(); ++m) {
    if (machine_can_take(sim, m, job)) feasible_scratch_.push_back(m);
  }
  return feasible_scratch_;
}

Rat NonMigratoryPolicy::machine_load(const Simulator& sim,
                                     std::size_t machine) const {
  if (machine >= profiles_.size() || profiles_[machine].empty()) return Rat(0);
  // The last slack counts every remaining unit on the machine.
  const ProfileEntry& last = profiles_[machine].back();
  Rat load = (last.deadline - sim.now()) * sim.speed();
  load -= last.slack;
  return load;
}

const char* fit_rule_name(FitRule rule) {
  switch (rule) {
    case FitRule::kFirstFit:
      return "FirstFit";
    case FitRule::kBestFit:
      return "BestFit";
    case FitRule::kWorstFit:
      return "WorstFit";
    case FitRule::kRandomFit:
      return "RandomFit";
    case FitRule::kNextFit:
      return "NextFit";
  }
  return "?";
}

FitPolicy::FitPolicy(FitRule rule, std::uint64_t seed)
    : rule_(rule), rng_(seed) {}

std::size_t FitPolicy::choose_machine(Simulator& sim, JobId job) {
  const std::vector<std::size_t>& feasible = feasible_machines_pooled(sim, job);
  if (feasible.empty()) return open_machines();  // open a fresh machine

  switch (rule_) {
    case FitRule::kFirstFit:
      return feasible.front();
    case FitRule::kBestFit:
    case FitRule::kWorstFit: {
      // Largest (BestFit) or smallest (WorstFit) load, first index on ties;
      // each machine's load is evaluated once.
      std::size_t best = feasible.front();
      Rat best_load = machine_load(sim, best);
      for (std::size_t i = 1; i < feasible.size(); ++i) {
        Rat load = machine_load(sim, feasible[i]);
        if (rule_ == FitRule::kBestFit ? load > best_load : load < best_load) {
          best = feasible[i];
          best_load = std::move(load);
        }
      }
      return best;
    }
    case FitRule::kRandomFit: {
      auto index = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(feasible.size()) - 1));
      return feasible[index];
    }
    case FitRule::kNextFit: {
      // First feasible machine at or after the cursor, wrapping.
      for (std::size_t m : feasible) {
        if (m >= cursor_) {
          cursor_ = m;
          return m;
        }
      }
      cursor_ = feasible.front();
      return feasible.front();
    }
  }
  throw std::logic_error("FitPolicy: unknown rule");
}

std::string FitPolicy::name() const {
  return std::string("NonMig-") + fit_rule_name(rule_);
}

}  // namespace minmach
