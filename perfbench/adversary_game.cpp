// adversary_game: the Theorem 3 game (run_strong_lower_bound) against the
// e01 opponent suite, each game of k <= 6 certified with the exact
// migratory optimum at library defaults. Almost all of the time is in the
// policies' admission tests and the simulator, on exact rationals.
#include <cstdint>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "minmach/adversary/strong_lb.hpp"
#include "minmach/algos/mediumfit.hpp"
#include "minmach/algos/nonmig.hpp"
#include "minmach/algos/nonpreemptive.hpp"
#include "minmach/algos/scale_class.hpp"
#include "minmach/flow/feasibility.hpp"

namespace perfbench {

namespace {

using namespace minmach;

enum class Opponent {
  kFirstFit,
  kBestFit,
  kWorstFit,
  kNextFit,
  kRandomFit,
  kMediumFit,
  kGreedyNp,
  kScaleClassNp,
};

struct Game {
  Opponent opponent;
  int k;
};

// Games with k above this are played but not certified (e01's default).
constexpr int kCertifyLevels = 6;

// e01's suite: the five fit rules for k = 2..8 and the three
// non-preemptive reservation policies for k = 2..6 -- 50 games.
std::vector<Game> game_suite() {
  std::vector<Game> games;
  for (Opponent o : {Opponent::kFirstFit, Opponent::kBestFit,
                     Opponent::kWorstFit, Opponent::kNextFit,
                     Opponent::kRandomFit})
    for (int k = 2; k <= 8; ++k) games.push_back({o, k});
  for (Opponent o :
       {Opponent::kMediumFit, Opponent::kGreedyNp, Opponent::kScaleClassNp})
    for (int k = 2; k <= 6; ++k) games.push_back({o, k});
  return games;
}

// Builds the opponent and hands it to fn. Only RandomFit draws from the
// seed; every other game is fixed by the construction itself.
template <typename Fn>
StrongLbResult with_opponent(Opponent opponent, std::uint64_t seed, Fn&& fn) {
  const auto fit = [&](FitRule rule) {
    FitPolicy policy(rule, seed);
    return fn(policy);
  };
  switch (opponent) {
    case Opponent::kFirstFit: return fit(FitRule::kFirstFit);
    case Opponent::kBestFit: return fit(FitRule::kBestFit);
    case Opponent::kWorstFit: return fit(FitRule::kWorstFit);
    case Opponent::kNextFit: return fit(FitRule::kNextFit);
    case Opponent::kRandomFit: return fit(FitRule::kRandomFit);
    case Opponent::kMediumFit: {
      MediumFitPolicy policy;
      return fn(policy);
    }
    case Opponent::kGreedyNp: {
      NonPreemptiveGreedyPolicy policy;
      return fn(policy);
    }
    case Opponent::kScaleClassNp: {
      ScaleClassPolicy policy;
      return fn(policy);
    }
  }
  throw std::logic_error("unknown opponent");
}

// Forwards every callback to the opponent inside an algos.* span, so a
// traced game splits the policy's time from the simulator's and the
// adversary's.
class TimedPolicy final : public OnlinePolicy {
 public:
  TimedPolicy(OnlinePolicy& inner, Tracer& tracer, std::uint64_t id)
      : inner_(inner), tracer_(tracer), id_(id) {}

  void on_release(Simulator& sim, JobId job) override {
    Tracer::Scope span(tracer_, "algos.release", id_);
    inner_.on_release(sim, job);
  }
  void on_complete(Simulator& sim, JobId job) override {
    Tracer::Scope span(tracer_, "algos.other", id_);
    inner_.on_complete(sim, job);
  }
  void on_miss(Simulator& sim, JobId job) override {
    Tracer::Scope span(tracer_, "algos.other", id_);
    inner_.on_miss(sim, job);
  }
  void dispatch(Simulator& sim) override {
    Tracer::Scope span(tracer_, "algos.dispatch", id_);
    inner_.dispatch(sim);
  }
  std::optional<Rat> next_wakeup(const Simulator& sim) override {
    Tracer::Scope span(tracer_, "algos.other", id_);
    return inner_.next_wakeup(sim);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  OnlinePolicy& inner_;
  Tracer& tracer_;
  std::uint64_t id_;
};

// What a game answered; compared across passes and against the paper.
struct GameRecord {
  std::size_t machines = 0;
  std::size_t jobs = 0;
  std::int64_t opt = -1;  // certified migratory OPT, -1 when not certified
  bool missed = false;
  bool refused = false;   // the game or its certification threw

  friend bool operator==(const GameRecord&, const GameRecord&) = default;
};

GameRecord play(const Game& game, std::uint64_t seed, Tracer* tracer,
                std::uint64_t id) {
  GameRecord record;
  try {
    const StrongLbResult result =
        with_opponent(game.opponent, seed, [&](auto& policy) {
          if (!tracer) return run_strong_lower_bound(policy, game.k);
          Tracer::Scope span(*tracer, "adversary.game", id);
          TimedPolicy timed(policy, *tracer, id);
          return run_strong_lower_bound(
              timed, [&policy](JobId job) { return policy.machine_of(job); },
              game.k);
        });
    record.machines = result.machines_used;
    record.jobs = result.jobs;
    record.missed = result.opponent_missed_deadline;
    if (game.k <= kCertifyLevels) {
      std::optional<Tracer::Scope> span;
      if (tracer) span.emplace(*tracer, "flow.certify", id);
      FeasibilityOracle oracle(result.instance);
      record.opt = oracle.optimal_machines();
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: game refused: " << error.what() << "\n";
    record.refused = true;
  }
  return record;
}

// Checks one pass's records against the paper's claims and, for later
// passes, against the first pass.
void check_pass(Outcome& out, const std::vector<Game>& games,
                const std::vector<GameRecord>& records,
                const std::vector<GameRecord>& reference,
                const std::string& label) {
  for (std::size_t g = 0; g < games.size(); ++g) {
    const GameRecord& r = records[g];
    const std::string where = label + " game " + std::to_string(g) + " (k=" +
                              std::to_string(games[g].k) + ")";
    if (r.refused) out.fail(where + ": refused");
    else if (r.missed) out.fail(where + ": opponent missed a deadline");
    else if (r.machines < static_cast<std::size_t>(games[g].k))
      out.fail(where + ": opponent not forced onto k machines");
    else if (games[g].k <= kCertifyLevels && (r.opt < 1 || r.opt > 3))
      out.fail(where + ": certified OPT " + std::to_string(r.opt) +
               " outside 1..3");
    else if (&records != &reference && !(r == reference[g]))
      out.fail(where + ": answer differs from the first untraced pass");
  }
}

}  // namespace

Outcome run_adversary_game(const Args& args, Tracer* tracer) {
  Outcome out;
  std::vector<Game> games;
  // Set-up: the game schedule plus a warm-up round of every game with
  // k <= 4, which fills the simulator, arena and oracle pools.
  std::vector<double> setups;
  const auto set_up = [&] {
    games = game_suite();
    for (std::size_t g = 0; g < games.size(); ++g)
      if (games[g].k <= 4) (void)play(games[g], args.seed, nullptr, g);
  };

  // Every pass plays the same 50 games; only RandomFit's moves depend on
  // the seed.
  std::vector<std::vector<GameRecord>> records;
  const std::vector<std::vector<double>> per_pass =
      run_passes(args.seconds, SIZE_MAX, [&](std::size_t) {
        timed_setup(setups, set_up);
        std::vector<GameRecord>& pass = records.emplace_back();
        std::vector<double> ms;
        for (std::size_t g = 0; g < games.size(); ++g) {
          const Clock::time_point start = Clock::now();
          pass.push_back(play(games[g], args.seed, nullptr, g));
          ms.push_back(ms_between(start, Clock::now()));
        }
        return ms;
      });
  const double rss = peak_rss_mb();
  const std::vector<double> best = best_of(per_pass);

  for (std::size_t p = 0; p < records.size(); ++p)
    check_pass(out, games, records[p], records.front(),
               "pass " + std::to_string(p));
  out.attempted = records.size() * games.size();
  out.note("games_per_pass", static_cast<double>(games.size()));
  out.note("setup_s_samples", setups);
  out.note("pass_ms", pass_totals(per_pass));
  out.note("latency_samples", static_cast<double>(best.size()));

  if (!tracer) {
    out.metric("setup_s", median(setups), "s");
    out.metric("throughput_per_s", games.size() / (sum(best) / 1e3), "1/s");
    out.metric("latency_p50_ms", percentile(best, 0.5), "ms");
    out.metric("latency_tail_ms", percentile(best, 0.8), "ms");
    out.metric("peak_rss_mb", rss, "MB");
    out.note("latency_tail_percentile", 80.0);
    return out;
  }

  // Traced passes: the same games, policy callbacks through TimedPolicy.
  const Counts before = Counts::now();
  const std::vector<std::vector<double>> traced =
      run_passes(args.seconds, per_pass.size(), [&](std::size_t p) {
        std::vector<GameRecord> pass;
        std::vector<double> ms;
        for (std::size_t g = 0; g < games.size(); ++g) {
          const Clock::time_point start = Clock::now();
          pass.push_back(play(games[g], args.seed, tracer, p * games.size() + g));
          ms.push_back(ms_between(start, Clock::now()));
        }
        check_pass(out, games, pass, records.front(),
                   "traced pass " + std::to_string(p));
        out.attempted += games.size();
        return ms;
      });
  const Counts after = Counts::now();
  const double n = static_cast<double>(traced.size());
  const double game_ms = tracer->total_ms("adversary.game") / n;
  const double release_ms = tracer->total_ms("algos.release") / n;
  const double dispatch_ms = tracer->total_ms("algos.dispatch") / n;
  const double other_ms = tracer->total_ms("algos.other") / n;
  out.metric("adversary.game_ms", game_ms, "ms");
  out.metric("algos.release_ms", release_ms, "ms");
  out.metric("algos.dispatch_ms", dispatch_ms, "ms");
  out.metric("algos.other_ms", other_ms, "ms");
  out.metric("sim.self_ms", game_ms - release_ms - dispatch_ms - other_ms,
             "ms");
  out.metric("flow.certify_ms", tracer->total_ms("flow.certify") / n, "ms");
  add_count_metrics(out, before, after, n);
  add_trace_shares(out, *tracer, per_pass, traced);
  return out;
}

}  // namespace perfbench
