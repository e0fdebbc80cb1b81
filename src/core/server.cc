#include "core/server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/continuous_batcher.h"
#include "core/engine_spec.h"
#include "core/iteration_cost.h"
#include "core/lane_core.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace dsinfer::core {

namespace {

// The serving timeline lives in the server's virtual clock domain
// (obs::kServerPid): track 0 is the batcher, track id + 1 is request `id`.
constexpr std::int64_t kBatcherTrack = 0;

std::int64_t request_track(std::int64_t id) { return id + 1; }

double to_us(double virtual_s) { return virtual_s * 1e6; }

}  // namespace

InferenceServer::InferenceServer(const ServeSpec& spec, std::uint64_t seed)
    : cfg_(spec.engine().model()), opts_(spec.options()), seed_(seed),
      engine_(spec.engine(), seed) {
  // Engine-level constraints already held (engine_ constructed above throws
  // first on those); validate() re-reports them plus the server-level ones
  // with typed codes, so the first server-level violation surfaces here.
  if (auto errs = spec.validate(); !errs.empty()) {
    throw ConfigException(std::move(errs.front()));
  }
}

// Deprecated shim — the only sanctioned spelling; everything routes through
// the ServeSpec primary above.
InferenceServer::InferenceServer(const model::DenseModelConfig& cfg,
                                 ServerOptions opts, std::uint64_t seed)
    : InferenceServer(ServeSpec::from_options(cfg, opts), seed) {}

InferenceEngine& InferenceServer::degraded_engine() {
  if (!degraded_) {
    degraded_ = std::make_unique<InferenceEngine>(
        cfg_, degraded_engine_options(opts_.engine), seed_);
  }
  return *degraded_;
}

IterationCost InferenceServer::cost() const {
  return IterationCost(opts_.virtual_service, opts_.engine, cfg_.layers);
}

double InferenceServer::estimate_service_s(
    std::int64_t prompt_tokens, std::int64_t new_tokens, bool degraded,
    std::int64_t prefix_hit_tokens) const {
  // Prefill work is the suffix past the resident prefix-cache hit — matched
  // tokens are reused, not recomputed, so they must not be priced (pricing
  // the full prompt would over-shed cache-warm requests).
  const std::int64_t suffix =
      std::max<std::int64_t>(0, prompt_tokens - prefix_hit_tokens);
  const auto& vs = opts_.virtual_service;
  if (vs.enabled) {
    return cost().estimate_s(vs.base_s, suffix, new_tokens,
                             degraded ? vs.degraded_factor : 1.0);
  }
  // Measured mode: fixed invocation cost plus per-decode-step cost, so a
  // 100-token request predicts ~10x the service of a 10-token one instead
  // of the same number (ISSUE 4 satellite). All terms are 0 until the
  // first observed batch.
  return ewma_base_s_ +
         ewma_prefill_token_s_ * static_cast<double>(suffix) +
         ewma_per_token_s_ * static_cast<double>(new_tokens);
}

void InferenceServer::observe_service(double base_s, double step_s,
                                      double prompt_token_s) {
  ewma_base_s_ =
      ewma_base_s_ == 0 ? base_s : 0.7 * ewma_base_s_ + 0.3 * base_s;
  ewma_per_token_s_ = ewma_per_token_s_ == 0
                          ? step_s
                          : 0.7 * ewma_per_token_s_ + 0.3 * step_s;
  ewma_prefill_token_s_ =
      ewma_prefill_token_s_ == 0
          ? prompt_token_s
          : 0.7 * ewma_prefill_token_s_ + 0.3 * prompt_token_s;
}

std::vector<RequestStats> InferenceServer::run_trace(
    std::vector<TimedRequest> requests) {
  counters_ = ServingCounters{};
  using Reason = BadRequestError::Reason;
  for (const auto& r : requests) {
    if (r.prompt.empty()) {
      throw BadRequestError(Reason::kEmptyPrompt, r.id,
                            "run_trace: empty prompt in request " +
                                std::to_string(r.id));
    }
    if (r.new_tokens < 1) {
      throw BadRequestError(Reason::kNonPositiveNewTokens, r.id,
                            "run_trace: non-positive new_tokens in request " +
                                std::to_string(r.id));
    }
    if (std::isnan(r.arrival_s) || r.arrival_s < 0) {
      throw BadRequestError(Reason::kBadArrival, r.id,
                            "run_trace: NaN/negative arrival in request " +
                                std::to_string(r.id));
    }
    if (std::isnan(r.deadline_s) || r.deadline_s < r.arrival_s) {
      throw BadRequestError(Reason::kBadDeadline, r.id,
                            "run_trace: NaN or pre-arrival deadline in request " +
                                std::to_string(r.id));
    }
  }
  // Serve in arrival order (stable for ties).
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return requests[a].arrival_s < requests[b].arrival_s;
  });

  if (obs::trace_enabled()) {
    auto& rec = obs::TraceRecorder::instance();
    rec.set_track_name(obs::kServerPid, kBatcherTrack, "batcher");
    for (const auto& r : requests) {
      rec.set_track_name(obs::kServerPid, request_track(r.id),
                         "req " + std::to_string(r.id));
      rec.instant_at(obs::kServerPid, request_track(r.id), to_us(r.arrival_s),
                     "server", "arrival");
    }
  }

  std::vector<RequestStats> stats =
      opts_.scheduler == Scheduler::kContinuous ? run_continuous(requests, order)
                                                : run_window(requests, order);

  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("server.served").add(counters_.served);
    reg.counter("server.sheds").add(counters_.sheds);
    reg.counter("server.timeouts").add(counters_.timeouts);
    reg.counter("server.failures").add(counters_.failures);
    reg.counter("server.retries").add(counters_.retries);
    reg.counter("server.engine_faults").add(counters_.engine_faults);
    reg.counter("server.degradations").add(counters_.degradations);
  }
  return stats;
}

std::vector<RequestStats> InferenceServer::run_continuous(
    const std::vector<TimedRequest>& requests,
    const std::vector<std::size_t>& order) {
  std::vector<RequestStats> stats(requests.size());
  ContinuousBatcher batcher(
      engine_, [this]() -> InferenceEngine& { return degraded_engine(); },
      opts_,
      [this](std::int64_t prompt_tokens, std::int64_t new_tokens,
             bool degraded, std::int64_t prefix_hit_tokens) {
        return estimate_service_s(prompt_tokens, new_tokens, degraded,
                                  prefix_hit_tokens);
      },
      seed_);
  batcher.run(requests, order, stats, counters_);
  return stats;
}

std::vector<RequestStats> InferenceServer::run_window(
    const std::vector<TimedRequest>& requests,
    const std::vector<std::size_t>& order) {
  const auto& res = opts_.resilience;
  const auto& vs = opts_.virtual_service;
  std::vector<RequestStats> stats(requests.size());
  std::vector<bool> served(requests.size(), false);
  double clock = 0;

  const bool tracing = obs::trace_enabled();
  auto& rec = obs::TraceRecorder::instance();

  for (std::size_t head_pos = 0; head_pos < order.size(); ++head_pos) {
    const std::size_t head = order[head_pos];
    if (served[head]) continue;
    const auto& hr = requests[head];
    // Service cannot start before the head arrives; the batcher then waits
    // up to the window for same-shape requests.
    double start = std::max(clock, hr.arrival_s);
    const double cutoff = start + opts_.batch_window_s;

    // Form the batch at full capacity first: joiners inside the window can
    // push the actual start later, and the admission/degradation decisions
    // below must see that final start, not the head's provisional one
    // (ISSUE 4 satellite — the old order made both calls against a stale
    // clock).
    std::vector<std::size_t> batch{head};
    for (std::size_t j = head_pos + 1;
         j < order.size() &&
         static_cast<std::int64_t>(batch.size()) < opts_.max_batch;
         ++j) {
      const std::size_t cand = order[j];
      if (served[cand]) continue;
      const auto& cr = requests[cand];
      if (cr.prompt.size() != hr.prompt.size()) continue;
      if (cr.arrival_s > cutoff) break;  // later arrivals are even later
      batch.push_back(cand);
      start = std::max(start, cr.arrival_s);
    }

    // Admission control, evaluated at the batch's true start: if the head
    // can no longer meet its deadline, shed it (its joiners stay queued and
    // are re-batched behind the next head).
    // Prompt-aware pricing (ISSUE 9): the window engine rebuilds its KV
    // caches per invocation, so there is no resident prefix to discount.
    if (res.admission_control && hr.deadline_s < kNoDeadline &&
        start + estimate_service_s(
                    static_cast<std::int64_t>(hr.prompt.size()),
                    hr.new_tokens, false, 0) >
            hr.deadline_s) {
      auto& st = stats[head];
      st.id = hr.id;
      st.arrival_s = hr.arrival_s;
      st.deadline_s = hr.deadline_s;
      st.start_s = st.finish_s = start;  // decision instant; no service
      st.outcome = RequestStats::Outcome::kShed;
      st.attr.add(obs::Phase::kShed, start - hr.arrival_s);
      served[head] = true;
      ++counters_.sheds;
      if (tracing) {
        rec.instant_at(obs::kServerPid, request_track(hr.id), to_us(start),
                       "server", "shed");
      }
      continue;
    }

    // Graceful degradation: sustained head-of-line queueing — measured at
    // the start the batch will actually get — means we are past capacity;
    // drop to half-size batches on the INT8 engine. The trimmed joiners go
    // back to the queue; the decision itself stands (re-deriving it from
    // the trimmed batch would oscillate).
    const bool degraded = res.degrade_under_overload &&
                          (start - hr.arrival_s) > res.overload_queue_s;
    if (degraded) {
      const auto cap = static_cast<std::size_t>(
          std::max<std::int64_t>(1, opts_.max_batch / 2));
      if (batch.size() > cap) {
        batch.resize(cap);
        start = std::max(clock, hr.arrival_s);
        for (std::size_t idx : batch) {
          start = std::max(start, requests[idx].arrival_s);
        }
      }
    }

    std::vector<std::vector<std::int32_t>> prompts;
    std::int64_t max_new = 0;
    for (std::size_t idx : batch) {
      prompts.push_back(requests[idx].prompt);
      max_new = std::max(max_new, requests[idx].new_tokens);
    }

    // Engine invocation with bounded retry: injected faults and typed
    // streaming faults both cost exponential (virtual) backoff.
    GenerationResult result;
    std::int64_t tries = 0;
    double backoff_s = 0;
    double measured_s = 0;
    bool ok = false;
    auto absorb_fault = [&]() {  // true => retry, false => budget exhausted
      ++counters_.engine_faults;
      if (tracing) {
        rec.instant_at(obs::kServerPid, kBatcherTrack,
                       to_us(start + backoff_s), "server", "engine fault");
      }
      if (tries >= res.max_retries) return false;
      backoff_s += res.retry_backoff_s * static_cast<double>(1LL << tries);
      ++tries;
      ++counters_.retries;
      if (tracing) {
        rec.instant_at(obs::kServerPid, kBatcherTrack,
                       to_us(start + backoff_s), "server",
                       "retry " + std::to_string(tries));
      }
      return true;
    };
    obs::PhaseBreakdown sub;  // comm/zero/kv wall time of the winning attempt
    for (;;) {
      if (res.injector && res.injector->should_fail(res.engine_site)) {
        if (absorb_fault()) continue;
        break;
      }
      try {
        obs::SubPhaseScope sub_scope;
        Stopwatch sw;
        result = (degraded ? degraded_engine() : engine_)
                     .generate(prompts, max_new, opts_.sampling);
        measured_s = sw.elapsed_s();
        sub = sub_scope.take();
        ok = true;
        break;
      } catch (const zero::StreamFault&) {
        if (absorb_fault()) continue;
        break;
      }
    }

    const std::int64_t batch_prompt_len =
        static_cast<std::int64_t>(hr.prompt.size());
    const double service_s =
        !ok ? 0.0
            : vs.enabled
                  ? estimate_service_s(batch_prompt_len, max_new, degraded, 0)
                  : measured_s;
    // Attribution of the batch's service interval (ISSUE 8): shared by every
    // member, it splits into prefill, the comm/zero/kv sub-phases (measured
    // mode; scaled down if concurrent ranks over-counted wall time), and a
    // decode-compute remainder — parts sum to service_s exactly.
    obs::PhaseBreakdown service_attr;
    if (ok) {
      const double prefill_part =
          vs.enabled ? cost().estimate_s(vs.base_s, batch_prompt_len, 0,
                                         degraded ? vs.degraded_factor : 1.0)
                     : std::min(std::max(result.prompt_seconds, 0.0),
                                service_s);
      service_attr.add(obs::Phase::kPrefill, prefill_part);
      // Virtual mode has no sub-phase wall time: the rest is decode.
      service_attr.merge(
          split_measured(service_s - prefill_part,
                         vs.enabled ? obs::PhaseBreakdown{} : sub,
                         obs::Phase::kDecodeCompute));
    }
    if (ok && !vs.enabled) {
      // Split the measurement into its fixed and per-step parts so the
      // estimator scales with a request's ask: the prompt phase stands in
      // for the invocation cost, the decode remainder amortizes over the
      // batch's max_new steps.
      const double decode_s = std::max(0.0, measured_s - result.prompt_seconds);
      observe_service(result.prompt_seconds,
                      decode_s / static_cast<double>(max_new),
                      result.prompt_seconds /
                          static_cast<double>(batch_prompt_len));
    }
    const double finish = start + backoff_s + service_s;

    if (tracing && ok) {
      rec.complete_at(obs::kServerPid, kBatcherTrack, to_us(start + backoff_s),
                      to_us(service_s), "server",
                      "batch x" + std::to_string(batch.size()),
                      "{\"batch\":" + std::to_string(batch.size()) +
                          ",\"degraded\":" + (degraded ? "true" : "false") +
                          "}");
    }

    for (std::size_t bi = 0; bi < batch.size(); ++bi) {
      const std::size_t idx = batch[bi];
      const auto& rq = requests[idx];
      auto& st = stats[idx];
      st.id = rq.id;
      st.arrival_s = rq.arrival_s;
      st.deadline_s = rq.deadline_s;
      st.start_s = start;
      st.finish_s = finish;
      st.batch_size = static_cast<std::int64_t>(batch.size());
      st.retries = tries;
      st.degraded = ok && degraded;
      st.attr.add(obs::Phase::kAdmissionWait, start - rq.arrival_s);
      st.attr.add(obs::Phase::kRetryBackoff, backoff_s);
      st.attr.merge(service_attr);
      if (tracing) {
        const std::int64_t track = request_track(rq.id);
        if (start > rq.arrival_s) {
          rec.complete_at(obs::kServerPid, track, to_us(rq.arrival_s),
                          to_us(start - rq.arrival_s), "server", "queue");
        }
        rec.complete_at(obs::kServerPid, track, to_us(start),
                        to_us(finish - start), "server", "service",
                        "{\"batch\":" + std::to_string(batch.size()) +
                            ",\"degraded\":" + (degraded ? "true" : "false") +
                            ",\"retries\":" + std::to_string(tries) + "}");
        if (!ok) {
          rec.instant_at(obs::kServerPid, track, to_us(finish), "server",
                         "failed");
        } else if (finish > rq.deadline_s) {
          rec.instant_at(obs::kServerPid, track, to_us(finish), "server",
                         "deadline miss");
        } else if (degraded) {
          rec.instant_at(obs::kServerPid, track, to_us(finish), "server",
                         "degraded");
        }
      }
      if (obs::metrics_enabled()) {
        // Handles are fetched per call: registry access is get-or-create,
        // and a function-local static would pin the first process-lifetime
        // registry instance across tests that reset it (ISSUE 4 satellite).
        auto& reg = obs::MetricsRegistry::instance();
        reg.histogram("server.queue_delay_s").record(start - rq.arrival_s);
        reg.histogram("server.latency_s").record(finish - rq.arrival_s);
      }
      if (!ok) {
        st.outcome = RequestStats::Outcome::kFailed;
        st.tokens = rq.prompt;  // nothing was generated
        ++counters_.failures;
      } else {
        // The batch decodes to its max_new; trim over-generation down to
        // this request's ask, but never extend — a sequence that hit the
        // stop token early is genuinely shorter, and padding it with zeros
        // would fabricate tokens (ISSUE 4 satellite).
        const std::size_t want =
            rq.prompt.size() + static_cast<std::size_t>(rq.new_tokens);
        st.tokens = result.tokens[bi];
        st.stopped = result.stopped[bi] && st.tokens.size() <= want;
        if (st.tokens.size() > want) st.tokens.resize(want);
        ++counters_.served;
        if (degraded) ++counters_.degradations;
        if (finish > rq.deadline_s) {
          st.outcome = RequestStats::Outcome::kTimedOut;
          ++counters_.timeouts;
        } else {
          st.outcome = degraded ? RequestStats::Outcome::kDegraded
                                : RequestStats::Outcome::kOk;
        }
      }
      served[idx] = true;
    }
    clock = finish;
  }
  return stats;
}

}  // namespace dsinfer::core
