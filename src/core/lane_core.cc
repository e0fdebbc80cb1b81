#include "core/lane_core.h"

#include <algorithm>
#include <utility>

#include "comm/collectives.h"
#include "util/stats.h"
#include "zero/offload.h"

namespace dsinfer::core {

EngineOptions degraded_engine_options(const EngineOptions& primary) {
  EngineOptions d = primary;
  if (d.stream_weights) {
    d.stream_int8 = true;
  } else {
    d.policy.dtype = kernels::Dtype::kINT8;
    d.policy.gemm = kernels::GemmKind::kBlocked;
  }
  return d;
}

obs::PhaseBreakdown split_measured(double dt, const obs::PhaseBreakdown& sub,
                                   obs::Phase compute) {
  constexpr obs::Phase kSub[] = {obs::Phase::kTpAllreduce,
                                 obs::Phase::kZeroFetch, obs::Phase::kKvSpill};
  double reported = 0;
  for (obs::Phase p : kSub) reported += sub.get(p);
  const double scale = reported > dt ? dt / reported : 1.0;
  obs::PhaseBreakdown out;
  double charged = 0;
  for (obs::Phase p : kSub) {
    const double part = sub.get(p) * scale;
    out.add(p, part);
    charged += part;
  }
  out.add(compute, std::max(0.0, dt - charged));
  return out;
}

DecoderLane::DecoderLane(InferenceEngine& engine, std::int64_t slots,
                         const SamplingOptions& sampling, std::uint64_t seed,
                         bool is_degraded, double factor)
    : decoder(engine, slots, sampling, seed),
      req(static_cast<std::size_t>(slots)),
      retries(req.size()), admit_s(req.size()), occ(req.size()),
      phases(req.size()), degraded(is_degraded), cost_factor(factor) {}

LaneCore::LaneCore(InferenceEngine& primary,
                   std::function<InferenceEngine&()> degraded_engine,
                   const ServerOptions& opts, std::uint64_t seed,
                   util::FaultInjector* injector, std::string site,
                   StepClock step_clock, FinishFn on_finish)
    : opts_(opts),
      cost_(opts.virtual_service, opts.engine, primary.layer_count()),
      seed_(seed), injector_(injector), site_(std::move(site)),
      step_clock_(step_clock), on_finish_(std::move(on_finish)),
      degraded_engine_(std::move(degraded_engine)),
      primary_(std::make_unique<DecoderLane>(primary, opts.max_batch,
                                             opts.sampling, seed, false,
                                             1.0)) {}

DecoderLane& LaneCore::degraded_lane() {
  if (!degraded_) {
    degraded_ = std::make_unique<DecoderLane>(
        degraded_engine_(), std::max<std::int64_t>(1, opts_.max_batch / 2),
        opts_.sampling, seed_ + 1, true,
        opts_.virtual_service.degraded_factor);
  }
  return *degraded_;
}

std::int64_t LaneCore::active() const {
  return primary_->decoder.active() +
         (degraded_ ? degraded_->decoder.active() : 0);
}

void LaneCore::charge(double dt, obs::Phase p) {
  if (dt <= 0) return;
  for (DecoderLane* lane : lanes()) {
    if (!lane) continue;
    for (std::int64_t s = 0; s < lane->decoder.capacity(); ++s) {
      if (lane->decoder.arena().in_use(s)) {
        lane->phases[static_cast<std::size_t>(s)].add(p, dt);
      }
    }
  }
}

void LaneCore::charge(const obs::PhaseBreakdown& parts) {
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::Phase>(p);
    charge(parts.get(phase), phase);
  }
}

void LaneCore::advance(double dt, obs::Phase p) {
  if (dt <= 0) return;
  clock_ += dt;
  charge(dt, p);
}

void LaneCore::advance_to(double t, obs::Phase p) {
  if (t <= clock_) return;
  charge(t - clock_, p);
  clock_ = t;
}

bool LaneCore::with_retry(const std::function<void()>& invoke, Attempt& a) {
  const auto& res = opts_.resilience;
  a = Attempt{};
  for (;;) {
    bool fault = injector_ && injector_->should_fail(site_);
    if (!fault) {
      try {
        obs::SubPhaseScope sub_scope;
        Stopwatch sw;
        invoke();
        a.measured_s = sw.elapsed_s();
        a.sub = sub_scope.take();
        return true;
      } catch (const zero::StreamFault&) {
        fault = true;
      } catch (const comm::CommFault&) {
        // A TP rank fault: the decoder already rewound every arena shard
        // and each fused step runs on a fresh DeviceGroup.
        fault = true;
      }
    }
    ++engine_faults_;
    if (on_fault) on_fault("engine fault");
    if (a.tries >= res.max_retries) return false;
    advance(res.retry_backoff_s * static_cast<double>(1LL << a.tries),
            obs::Phase::kRetryBackoff);
    ++a.tries;
    ++engine_retries_;
    if (on_fault) on_fault("retry " + std::to_string(a.tries));
  }
}

void LaneCore::finish(DecoderLane& lane, std::int64_t slot, bool failed) {
  on_finish_(lane, slot, failed);
  lane.decoder.retire(slot);
}

std::int64_t LaneCore::admit(DecoderLane& lane, std::size_t req,
                             const TimedRequest& rq, std::int64_t& tries) {
  const double start = clock_;
  std::int64_t slot = -1;
  Attempt a;
  const bool ok = with_retry(
      [&] { slot = lane.decoder.admit(rq.prompt, rq.new_tokens); }, a);
  tries = a.tries;
  if (!ok) return -1;
  const auto us = static_cast<std::size_t>(slot);
  lane.req[us] = req;
  lane.retries[us] = a.tries;
  lane.admit_s[us] = start;
  // Fresh ledger; the slot was not live during its own admission retries,
  // so their backoff is back-charged to keep [admit_s, finish] covered.
  lane.phases[us].clear();
  lane.phases[us].add(obs::Phase::kRetryBackoff, clock_ - start);
  // Later prefill chunks are priced inside step().
  if (opts_.virtual_service.enabled) {
    advance(cost_.admit_s(lane.decoder.last_step_prefill_rows(),
                          lane.cost_factor) *
                slowdown(),
            obs::Phase::kPrefill);
  } else {
    charge(split_measured(a.measured_s, a.sub, obs::Phase::kPrefill));
    clock_ += a.measured_s;
  }
  lane.occ[us] = active();
  if (lane.decoder.finished(slot)) finish(lane, slot, false);
  return slot;
}

std::int64_t LaneCore::step(DecoderLane& lane) {
  if (lane.decoder.active() == 0) return -1;
  Attempt a;
  const bool ok = with_retry([&] { lane.decoder.step(); }, a);
  for (std::int64_t s = 0; s < lane.decoder.capacity(); ++s) {
    if (lane.decoder.arena().in_use(s)) {
      lane.retries[static_cast<std::size_t>(s)] += a.tries;
    }
  }
  if (!ok) {
    for (std::int64_t s = 0; s < lane.decoder.capacity(); ++s) {
      if (lane.decoder.arena().in_use(s)) finish(lane, s, true);
    }
    return -1;
  }
  const std::int64_t decode_rows = lane.decoder.last_step_decode_rows();
  if (opts_.virtual_service.enabled) {
    const IterationCost::Step part =
        cost_.step(lane.decoder.last_step_prefill_rows(), decode_rows,
                   lane.cost_factor * slowdown());
    if (step_clock_ == StepClock::kOneSum) {
      charge(part.prefill, obs::Phase::kPrefill);
      charge(part.decode, obs::Phase::kDecodeCompute);
      charge(part.draft, obs::Phase::kDraftCompute);
      clock_ += part.prefill + (part.decode + part.draft);
    } else {
      advance(part.prefill, obs::Phase::kPrefill);
      advance(part.decode, obs::Phase::kDecodeCompute);
      advance(part.draft, obs::Phase::kDraftCompute);
    }
  } else {
    // Fused rows can't be timed apart; the dominant row type takes it.
    charge(split_measured(a.measured_s, a.sub,
                          decode_rows > 0 ? obs::Phase::kDecodeCompute
                                          : obs::Phase::kPrefill));
    clock_ += a.measured_s;
  }
  for (std::int64_t s = 0; s < lane.decoder.capacity(); ++s) {
    if (lane.decoder.arena().in_use(s) && lane.decoder.finished(s)) {
      finish(lane, s, false);
    }
  }
  return decode_rows;
}

}  // namespace dsinfer::core
