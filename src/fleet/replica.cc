#include "fleet/replica.h"

#include <algorithm>
#include <utility>

namespace dsinfer::fleet {

double request_estimate_s(const core::IterationCost& cost,
                          const core::TimedRequest& rq, bool degraded) {
  const auto& vs = cost.model();
  return cost.estimate_s(vs.prefill_s,
                         static_cast<std::int64_t>(rq.prompt.size()),
                         rq.new_tokens, degraded ? vs.degraded_factor : 1.0);
}

Replica::Replica(const FleetSpec& spec, std::int64_t id, std::uint64_t seed)
    : spec_(spec), site_("fleet.r" + std::to_string(id)),
      seed_(seed), engine_(spec.serve().engine(), seed),
      core_(
          engine_,
          [this]() -> core::InferenceEngine& {
            degraded_engine_ = std::make_unique<core::InferenceEngine>(
                spec_.serve().engine().model(),
                core::degraded_engine_options(spec_.serve().options().engine),
                seed_);
            return *degraded_engine_;
          },
          spec.serve().options(), seed, spec.options().injector, site_,
          core::LaneCore::StepClock::kPerPart,
          [this](core::DecoderLane& lane, std::int64_t slot, bool failed) {
            const auto us = static_cast<std::size_t>(slot);
            Completion c;
            c.ridx = lane.req[us];
            c.failed = failed;
            c.batch_lane = lane.degraded;
            c.admit_s = lane.admit_s[us];
            c.finish_s = core_.clock();
            c.retries = lane.retries[us];
            c.occupancy = lane.occ[us];
            c.phases = lane.phases[us];
            if (!failed) {
              c.tokens = lane.decoder.tokens(slot);
              c.stopped = lane.decoder.stopped(slot);
            }
            refund(c.ridx);
            done_.push_back(std::move(c));
          }) {}

core::DecoderLane& Replica::lane_for(const core::TimedRequest& rq) {
  if (rq.slo != core::SloClass::kBatch || !spec_.options().batch_lane) {
    return core_.primary();
  }
  return core_.degraded_lane();
}

void Replica::enqueue(std::size_t ridx, const core::TimedRequest* rq) {
  core::DecoderLane& lane = lane_for(*rq);
  queue_of(lane).emplace_back(ridx, rq);
  book(ridx, request_estimate_s(core_.cost(), *rq, lane.degraded));
}

bool Replica::cancel(std::size_t ridx) {
  for (core::DecoderLane* lane : core_.lanes()) {
    if (!lane) continue;
    Queue& queue = queue_of(*lane);
    auto it = std::find_if(queue.begin(), queue.end(),
                           [&](const auto& e) { return e.first == ridx; });
    if (it != queue.end()) {
      queue.erase(it);
      refund(ridx);
      return true;
    }
    for (std::int64_t s = 0; s < lane->decoder.capacity(); ++s) {
      if (lane->decoder.arena().in_use(s) &&
          lane->req[static_cast<std::size_t>(s)] == ridx) {
        lane->decoder.retire(s);  // mid-decode cancellation frees the slot
        refund(ridx);
        return true;
      }
    }
  }
  return false;
}

std::vector<std::size_t> Replica::drain() {
  std::vector<std::size_t> out;
  for (core::DecoderLane* lane : core_.lanes()) {
    if (!lane) continue;
    Queue& queue = queue_of(*lane);
    for (const auto& [ridx, rq] : queue) out.push_back(ridx);
    queue.clear();
    for (std::int64_t s = 0; s < lane->decoder.capacity(); ++s) {
      if (lane->decoder.arena().in_use(s)) {
        out.push_back(lane->req[static_cast<std::size_t>(s)]);
        lane->decoder.retire(s);
      }
    }
  }
  refund_all();
  return out;
}

bool Replica::has_work() const {
  return !queues_[0].empty() || !queues_[1].empty() || core_.active() > 0;
}

bool Replica::fits_request(const core::TimedRequest& rq) const {
  return core_.primary().decoder.fits(
      static_cast<std::int64_t>(rq.prompt.size()), rq.new_tokens);
}

bool Replica::holds_prefix(const core::TimedRequest& rq) const {
  const auto& d = core_.primary().decoder;
  return d.arena().prefix_cache_enabled() &&
         d.cached_prefix_tokens(rq.prompt) > 0;
}

void Replica::straggle(double factor, double until_s) {
  core_.slow_down(factor, until_s);
}

void Replica::admit_one(core::DecoderLane& lane, Queue& queue) {
  auto [ridx, rq] = queue.front();
  queue.pop_front();
  const double admit_start = core_.clock();
  std::int64_t tries = 0;
  if (core_.admit(lane, ridx, *rq, tries) >= 0) return;
  refund(ridx);
  Completion c;
  c.ridx = ridx;
  c.failed = true;
  c.batch_lane = lane.degraded;
  c.admit_s = admit_start;
  c.finish_s = core_.clock();
  c.retries = tries;
  // The copy never held a slot; [admit_s, finish_s] is all backoff.
  c.phases.add(obs::Phase::kRetryBackoff, c.finish_s - admit_start);
  done_.push_back(std::move(c));
}

void Replica::process_one(double now, std::vector<Completion>& out) {
  // Catching up to the fleet clock (stall recovery, idle wakeup) and
  // injected latency spikes are dead time for every sequence in a slot. The
  // clock snaps to `now` exactly: clock + (now - clock) can round
  // differently, and downstream timestamps must stay bit-identical.
  core_.advance_to(now, obs::Phase::kStall);
  if (util::FaultInjector* inj = spec_.options().injector) {
    core_.advance(inj->delay_s(site_), obs::Phase::kStall);
  }
  bool admitted = false;
  for (core::DecoderLane* lane : core_.lanes()) {
    // Page-budget admission: the queue head needs a free slot AND
    // committable pool pages for its prompt + max_new tokens. The router
    // only dispatches structurally-fitting requests, so when a lane is idle
    // can_admit reduces to the free-slot gate — a blocked head always has
    // live sequences ahead of it to step (no stall).
    if (!lane) continue;
    Queue& queue = queue_of(*lane);
    if (!queue.empty() &&
        lane->decoder.can_admit(queue.front().second->prompt,
                                queue.front().second->new_tokens)) {
      admit_one(*lane, queue);
      admitted = true;
      break;
    }
  }
  if (!admitted) {
    for (core::DecoderLane* lane : core_.lanes()) {
      if (lane) core_.step(*lane);
    }
  }
  for (Completion& c : done_) out.push_back(std::move(c));
  done_.clear();
}

}  // namespace dsinfer::fleet
