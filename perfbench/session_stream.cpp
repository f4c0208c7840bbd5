// session_stream: one closed-loop client feeding svc::SessionEngine::ingest
// ticks of 256 events, drawn round-robin from 1024 sessions of d01's
// 70% release / 30% complete stream with a query after every 7th event.
// The flow network stays warm and is spliced in place; queries repair the
// routed flow instead of rebuilding it.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "minmach/core/instance.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/svc/engine.hpp"
#include "minmach/svc/session.hpp"
#include "minmach/util/rng.hpp"

namespace perfbench {

namespace {

using namespace minmach;
using svc::Event;

constexpr std::uint64_t kSessions = 1024;
constexpr std::int64_t kEventsPerSession = 256;
constexpr std::size_t kTick = 256;
// Sessions whose every answer is re-derived with a batch oracle.
constexpr std::uint64_t kCheckEvery = 64;

// d01's integer-grid job and per-session stream, with d01's query
// placement (after event i of session s when (i + s) % 7 == 6).
Job random_job(Rng& rng) {
  const std::int64_t release = rng.uniform_int(0, 96);
  const std::int64_t length = rng.uniform_int(1, 24);
  const std::int64_t processing = rng.uniform_int(1, length);
  return Job{Rat(release), Rat(release + length), Rat(processing)};
}

std::vector<Event> session_events(std::uint64_t session, std::uint64_t seed) {
  Rng rng(seed + session + 1);
  std::vector<Event> out;
  std::vector<std::int64_t> live;
  std::int64_t next_job = 0;
  for (std::int64_t i = 0; i < kEventsPerSession; ++i) {
    Event event;
    event.session = session;
    if (live.empty() || rng.uniform_int(0, 99) < 70) {
      event.kind = Event::Kind::kRelease;
      event.job = next_job++;
      event.payload = random_job(rng);
      live.push_back(event.job);
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      event.kind = Event::Kind::kComplete;
      event.job = live[pick];
      live[pick] = live.back();
      live.pop_back();
    }
    out.push_back(std::move(event));
    if ((static_cast<std::uint64_t>(i) + session) % 7 == 6) {
      Event query;
      query.session = session;
      out.push_back(query);
    }
  }
  return out;
}

// Round-robin over sessions (event 0 of every session, then event 1, ...),
// cut into ticks of kTick events.
std::vector<std::vector<Event>> make_ticks(std::uint64_t seed) {
  std::vector<std::vector<Event>> streams;
  for (std::uint64_t s = 0; s < kSessions; ++s)
    streams.push_back(session_events(s, seed * 0x9e3779b97f4a7c15ULL));
  std::size_t longest = 0;
  for (const auto& stream : streams) longest = std::max(longest, stream.size());
  std::vector<std::vector<Event>> ticks;
  for (std::size_t i = 0; i < longest; ++i)
    for (auto& stream : streams) {
      if (i >= stream.size()) continue;
      if (ticks.empty() || ticks.back().size() == kTick) {
        ticks.emplace_back();
        ticks.back().reserve(kTick);
      }
      ticks.back().push_back(std::move(stream[i]));
    }
  return ticks;
}

// Ingests every tick into `engine`; returns per-tick walls in ms.
std::vector<double> ingest_all(svc::SessionEngine& engine,
                               const std::vector<std::vector<Event>>& ticks) {
  std::vector<double> walls;
  walls.reserve(ticks.size());
  for (const std::vector<Event>& tick : ticks) {
    const Clock::time_point start = Clock::now();
    engine.ingest(tick);
    walls.push_back(ms_between(start, Clock::now()));
  }
  return walls;
}

// Replays each checked session alone and answers every query with a batch
// FeasibilityOracle rebuilt over the live set; counts disagreements.
void check_against_batch(Outcome& out,
                         const std::vector<std::vector<Event>>& ticks,
                         const svc::SessionEngine& engine) {
  std::vector<std::vector<std::pair<std::int64_t, Job>>> live(kSessions);
  std::vector<std::size_t> asked(kSessions, 0);
  for (const std::vector<Event>& tick : ticks)
    for (const Event& event : tick) {
      if (event.session % kCheckEvery != 0) continue;
      auto& jobs = live[event.session];
      if (event.kind == Event::Kind::kRelease) {
        jobs.emplace_back(event.job, event.payload);
      } else if (event.kind == Event::Kind::kComplete) {
        std::erase_if(jobs, [&](const auto& j) { return j.first == event.job; });
      } else {
        std::vector<Job> payloads;
        for (const auto& j : jobs) payloads.push_back(j.second);
        FeasibilityOracle oracle{Instance(std::move(payloads))};
        const std::int64_t expected = oracle.optimal_machines();
        const std::vector<std::int64_t>& got = engine.answers(event.session);
        const std::size_t q = asked[event.session]++;
        if (q >= got.size() || got[q] != expected)
          out.fail("session " + std::to_string(event.session) + " query " +
                   std::to_string(q) + ": engine disagrees with batch OPT " +
                   std::to_string(expected));
      }
    }
}

}  // namespace

Outcome run_session_stream(const Args& args, Tracer* tracer) {
  Outcome out;
  // Set-up: generating the stream.
  std::vector<std::vector<Event>> ticks;
  std::vector<double> setups;
  const auto set_up = [&] { ticks = make_ticks(args.seed); };

  svc::EngineOptions options;
  options.threads =
      static_cast<std::int64_t>(std::min<std::size_t>(4, cpu_count()));

  // Every pass ingests the whole stream into a fresh engine.
  std::string report;
  std::vector<std::vector<std::int64_t>> answers;
  const std::vector<std::vector<double>> per_pass =
      run_passes(args.seconds, SIZE_MAX, [&](std::size_t p) {
        timed_setup(setups, set_up);
        svc::SessionEngine engine(options);
        std::vector<double> ms = ingest_all(engine, ticks);
        if (p == 0) {
          report = engine.report_json();
          for (std::uint64_t s = 0; s < kSessions; ++s)
            answers.push_back(engine.answers(s));
          check_against_batch(out, ticks, engine);
        } else if (engine.report_json() != report) {
          out.fail("pass " + std::to_string(p) + " report differs from pass 0");
        }
        return ms;
      });
  const double rss = peak_rss_mb();
  const std::vector<double> best = best_of(per_pass);
  std::uint64_t events = 0;
  for (const auto& tick : ticks) events += tick.size();
  out.attempted = per_pass.size() * events;

  // The same stream at 1 worker: the report must match byte for byte.
  svc::EngineOptions one_worker = options;
  one_worker.threads = 1;
  double serial_ms = 0;
  {
    svc::SessionEngine serial(one_worker);
    serial_ms = sum(ingest_all(serial, ticks));
    out.attempted += events;
    if (serial.report_json() != report)
      out.fail("report differs between 1 and " +
               std::to_string(options.threads) + " workers");
  }

  out.note("engine_workers", static_cast<double>(options.threads));
  out.note("events_per_pass", static_cast<double>(events));
  out.note("setup_s_samples", setups);
  out.note("pass_ms", pass_totals(per_pass));
  out.note("latency_samples", static_cast<double>(best.size()));

  if (!tracer) {
    out.metric("setup_s", median(setups), "s");
    out.metric("throughput_per_s", static_cast<double>(events) / (sum(best) / 1e3),
               "1/s");
    out.metric("latency_p50_ms", percentile(best, 0.5), "ms");
    out.metric("latency_tail_ms", percentile(best, 0.99), "ms");
    out.metric("peak_rss_mb", rss, "MB");
    out.note("latency_tail_percentile", 99.0);
    return out;
  }

  // Traced single-threaded replay of the stream in the same per-session
  // order, through svc::Session: edits, an explicit flush before each
  // query, then the query itself. Its untraced counterpart is the 1-worker
  // engine run above.
  const Counts before = Counts::now();
  std::vector<std::unique_ptr<svc::Session>> sessions(kSessions);
  std::vector<std::vector<std::int64_t>> replayed(kSessions);
  std::vector<double> traced_ms;
  for (std::size_t t = 0; t < ticks.size(); ++t) {
    const Clock::time_point start = Clock::now();
    for (const Event& event : ticks[t]) {
      auto& session = sessions[event.session];
      if (!session) session = std::make_unique<svc::Session>();
      if (event.kind == Event::Kind::kQuery) {
        {
          Tracer::Scope span(*tracer, "flow.splice", t);
          session->flush();
        }
        Tracer::Scope span(*tracer, "flow.query", t);
        replayed[event.session].push_back(session->query_opt());
      } else {
        Tracer::Scope span(*tracer, "svc.edit", t);
        if (event.kind == Event::Kind::kRelease)
          session->on_release(event.job, event.payload);
        else
          session->on_complete(event.job);
      }
    }
    traced_ms.push_back(ms_between(start, Clock::now()));
  }
  const Counts after = Counts::now();
  out.attempted += events;
  if (replayed != answers)
    out.fail("traced replay answers differ from the engine's");

  out.metric("svc.edit_ms", tracer->total_ms("svc.edit"), "ms");
  out.metric("flow.splice_ms", tracer->total_ms("flow.splice"), "ms");
  out.metric("flow.query_ms", tracer->total_ms("flow.query"), "ms");
  out.metric("svc.parallel_efficiency",
             serial_ms / (static_cast<double>(options.threads) * sum(best)),
             "share");
  add_count_metrics(out, before, after, 1.0);
  out.metric("trace.overhead_share", sum(traced_ms) / serial_ms - 1, "share");
  out.metric("trace.coverage_share", tracer->root_ms() / sum(traced_ms),
             "share");
  return out;
}

}  // namespace perfbench
