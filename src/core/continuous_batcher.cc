#include "core/continuous_batcher.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/lane_core.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsinfer::core {

namespace {

// Same virtual-clock trace convention as the window batcher: track 0 is the
// batcher, track id + 1 is request `id`, timestamps in virtual microseconds.
constexpr std::int64_t kBatcherTrack = 0;

std::int64_t request_track(std::int64_t id) { return id + 1; }

double to_us(double virtual_s) { return virtual_s * 1e6; }

}  // namespace

ContinuousBatcher::ContinuousBatcher(
    InferenceEngine& primary, std::function<InferenceEngine&()> degraded,
    const ServerOptions& opts,
    std::function<double(std::int64_t, std::int64_t, bool, std::int64_t)>
        estimate_s,
    std::uint64_t seed)
    : primary_(primary), degraded_factory_(std::move(degraded)), opts_(opts),
      estimate_s_(std::move(estimate_s)), seed_(seed) {}

void ContinuousBatcher::run(const std::vector<TimedRequest>& requests,
                            const std::vector<std::size_t>& order,
                            std::vector<RequestStats>& stats,
                            ServingCounters& counters) {
  const auto& res = opts_.resilience;
  const bool tracing = obs::trace_enabled();
  const bool metrics = obs::metrics_enabled();
  auto& rec = obs::TraceRecorder::instance();
  std::int64_t slots_released = 0;

  // Writes the terminal stats of the request in `slot`; the core retires
  // the slot right after.
  auto finalize = [&](LaneCore& core, DecoderLane& lane, std::int64_t slot,
                      bool failed) {
    const auto us = static_cast<std::size_t>(slot);
    const double now = core.clock();
    const auto& rq = requests[lane.req[us]];
    auto& st = stats[lane.req[us]];
    st.finish_s = now;
    st.retries = lane.retries[us];
    st.batch_size = lane.occ[us];  // step occupancy at admission
    // [start_s, finish_s] from the slot's ledger; queue wait was attributed
    // at admission. Together they sum to latency_s().
    st.attr.merge(lane.phases[us]);
    if (failed) {
      st.outcome = RequestStats::Outcome::kFailed;
      st.tokens = rq.prompt;  // nothing usable was generated
      ++counters.failures;
    } else {
      // The prompt plus what was actually generated — truncated at the
      // stop token, never padded.
      st.tokens = lane.decoder.tokens(slot);
      st.stopped = lane.decoder.stopped(slot);
      st.degraded = lane.degraded;
      ++counters.served;
      if (lane.degraded) ++counters.degradations;
      if (now > rq.deadline_s) {
        st.outcome = RequestStats::Outcome::kTimedOut;
        ++counters.timeouts;
      } else {
        st.outcome = lane.degraded ? RequestStats::Outcome::kDegraded
                                   : RequestStats::Outcome::kOk;
      }
    }
    if (tracing) {
      const std::int64_t track = request_track(rq.id);
      if (st.start_s > rq.arrival_s) {
        rec.complete_at(obs::kServerPid, track, to_us(rq.arrival_s),
                        to_us(st.start_s - rq.arrival_s), "server", "queue");
      }
      rec.complete_at(obs::kServerPid, track, to_us(st.start_s),
                      to_us(now - st.start_s), "server", "service",
                      "{\"degraded\":" + std::string(lane.degraded ? "true"
                                                                   : "false") +
                          ",\"retries\":" + std::to_string(st.retries) + "}");
      if (failed) {
        rec.instant_at(obs::kServerPid, track, to_us(now), "server", "failed");
      } else if (now > rq.deadline_s) {
        rec.instant_at(obs::kServerPid, track, to_us(now), "server",
                       "deadline miss");
      } else if (lane.degraded) {
        rec.instant_at(obs::kServerPid, track, to_us(now), "server",
                       "degraded");
      }
    }
    if (metrics) {
      auto& reg = obs::MetricsRegistry::instance();
      reg.histogram("server.queue_delay_s").record(st.start_s - rq.arrival_s);
      reg.histogram("server.latency_s").record(now - rq.arrival_s);
    }
    ++slots_released;
  };

  LaneCore core(primary_, degraded_factory_, opts_, seed_, res.injector,
                res.engine_site, LaneCore::StepClock::kOneSum,
                [&](DecoderLane& lane, std::int64_t slot, bool failed) {
                  finalize(core, lane, slot, failed);
                });
  if (tracing) {
    core.on_fault = [&](const std::string& what) {
      rec.instant_at(obs::kServerPid, kBatcherTrack, to_us(core.clock()),
                     "server", what);
    };
  }

  // Terminal stats of a request that never held a slot.
  auto reject = [&](const TimedRequest& rq, RequestStats& st,
                    RequestStats::Outcome outcome, const char* what) {
    st.finish_s = core.clock();
    st.outcome = outcome;
    if (tracing) {
      rec.instant_at(obs::kServerPid, request_track(rq.id),
                     to_us(core.clock()), "server", what);
    }
  };

  // Admits queued arrivals (strict FIFO) whose arrival time has passed.
  // Stops at the first request whose target lane has no room — it keeps its
  // place at the head of the queue until a retirement frees one.
  std::size_t qi = 0;  // next unadmitted entry in `order`
  auto try_admit = [&]() {
    for (; qi < order.size(); ++qi) {
      const std::size_t idx = order[qi];
      const auto& rq = requests[idx];
      const double clock = core.clock();
      if (rq.arrival_s > clock) break;

      // Overload routing is evaluated at the admission instant — the delay
      // this request has actually accrued. Batch-class requests always ride
      // the degraded INT8 half-capacity lane: the SLO class pins the lane
      // the overload path only falls back to.
      const bool overload = rq.slo == SloClass::kBatch ||
                            (res.degrade_under_overload &&
                             (clock - rq.arrival_s) > res.overload_queue_s);

      auto& st = stats[idx];
      st.id = rq.id;
      st.arrival_s = rq.arrival_s;
      st.deadline_s = rq.deadline_s;
      st.start_s = clock;

      // Prompt-aware admission pricing, discounted by the tokens already
      // resident in the target lane's prefix cache (they are reused, not
      // recomputed). A lane that doesn't exist yet has no cache.
      DecoderLane* target = overload ? core.degraded() : &core.primary();
      const std::int64_t hit_tokens =
          target ? target->decoder.resident_prefix_tokens(rq.prompt) : 0;
      if (res.admission_control && rq.deadline_s < kNoDeadline &&
          clock + estimate_s_(static_cast<std::int64_t>(rq.prompt.size()),
                              rq.new_tokens, overload, hit_tokens) >
              rq.deadline_s) {
        st.attr.add(obs::Phase::kShed, clock - rq.arrival_s);
        ++counters.sheds;
        reject(rq, st, RequestStats::Outcome::kShed, "shed");
        continue;
      }

      DecoderLane& lane = overload ? core.degraded_lane() : core.primary();
      // Structural KV shed: a request whose worst-case pages can never fit
      // the lane's pool (or whose tokens exceed max_seq) would block the
      // FIFO head forever — reject it now, reporting the page arithmetic.
      const auto P = static_cast<std::int64_t>(rq.prompt.size());
      if (!lane.decoder.fits(P, rq.new_tokens)) {
        const auto& arena = lane.decoder.arena();
        st.shed_reason =
            "kv pages: need " +
            std::to_string(arena.pages_needed(P + rq.new_tokens)) + " of " +
            std::to_string(arena.total_pages()) + " (page_tokens " +
            std::to_string(arena.page_tokens()) + ", max_seq " +
            std::to_string(arena.max_seq()) + ")";
        st.attr.add(obs::Phase::kShed, clock - rq.arrival_s);
        ++counters.sheds;
        reject(rq, st, RequestStats::Outcome::kShed, "shed (kv pages)");
        continue;
      }
      // The head waits for retirements to free a slot AND page budget for
      // its prompt + max_new actual tokens (strip mode: a free slot).
      if (!lane.decoder.can_admit(rq.prompt, rq.new_tokens)) break;

      st.attr.add(obs::Phase::kAdmissionWait, clock - rq.arrival_s);
      std::int64_t tries = 0;
      const std::int64_t slot = core.admit(lane, idx, rq, tries);
      if (slot < 0) {
        st.retries = tries;
        st.tokens = rq.prompt;
        st.attr.add(obs::Phase::kRetryBackoff, core.clock() - st.start_s);
        ++counters.failures;
        reject(rq, st, RequestStats::Outcome::kFailed, "failed");
        continue;
      }
      if (tracing) {
        rec.instant_at(obs::kServerPid, request_track(rq.id), to_us(clock),
                       "server", "admit slot " + std::to_string(slot));
      }
    }
  };

  // Inter-decode-step interval probe (the bench's stall metric): marks the
  // clock at every decode-bearing primary-lane iteration; the gap between
  // consecutive marks accumulates whatever ran in between (admit prefill
  // chunks, backoff, the degraded lane).
  std::vector<double>* interval_sink = opts_.decode_interval_sink;
  double decode_mark = -1;
  std::int64_t steps = 0;

  for (;;) {
    try_admit();
    const std::int64_t active = core.active();
    if (active == 0) {
      if (qi >= order.size()) break;
      // Idle: jump the virtual clock to the next arrival.
      core.advance_to(requests[order[qi]].arrival_s, obs::Phase::kStall);
      continue;
    }
    const double step_begin = core.clock();
    if (metrics) {
      obs::MetricsRegistry::instance()
          .histogram("server.step_occupancy")
          .record(static_cast<double>(active));
    }
    if (core.step(core.primary()) > 0 && interval_sink) {
      const double now = core.clock();
      if (decode_mark >= 0) interval_sink->push_back(now - decode_mark);
      decode_mark = now;
    }
    if (DecoderLane* degraded = core.degraded()) core.step(*degraded);
    ++steps;
    if (tracing && core.clock() > step_begin) {
      rec.complete_at(obs::kServerPid, kBatcherTrack, to_us(step_begin),
                      to_us(core.clock() - step_begin), "server",
                      "step x" + std::to_string(active),
                      "{\"occupancy\":" + std::to_string(active) + "}");
    }
  }

  counters.engine_faults += core.engine_faults();
  counters.retries += core.engine_retries();
  if (metrics) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("server.steps").add(steps);
    reg.counter("server.slots_acquired")
        .add(core.primary().decoder.total_admitted() +
             (core.degraded() ? core.degraded()->decoder.total_admitted()
                              : 0));
    reg.counter("server.slots_released").add(slots_released);
  }
}

}  // namespace dsinfer::core
