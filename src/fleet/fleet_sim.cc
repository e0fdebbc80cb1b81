#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>

#include "core/iteration_cost.h"

namespace dsinfer::fleet {

namespace {

// A replica modeled as the same one-action-at-a-time machine the functional
// Replica is — admit one request when a lane has queue + free slot, else one
// fused iteration per lane, primary lane first — with synthetic remaining-
// token counters instead of real decoders. Every clock move mirrors
// core::LaneCore under Replica::process_one (per-part pricing, the same
// slowdown and stall catch-up, the same per-slot phase ledger), so one
// replica times each request exactly like the functional one.
class SimReplica final : public ReplicaBase {
 public:
  SimReplica(const FleetSpec& spec, const core::IterationCost& cost)
      : spec_(spec), cost_(cost) {
    const auto& so = spec.serve().options();
    lanes_[0].init(so.max_batch, 1.0, false);
    lanes_[1].init(std::max<std::int64_t>(1, so.max_batch / 2),
                   so.virtual_service.degraded_factor, true);
  }

  void enqueue(std::size_t ridx, const core::TimedRequest* rq) override {
    Lane& lane =
        lanes_[rq->slo == core::SloClass::kBatch && spec_.options().batch_lane
                   ? 1
                   : 0];
    lane.queue.emplace_back(ridx, rq);
    book(ridx, request_estimate_s(cost_, *rq, lane.degraded));
  }

  bool cancel(std::size_t ridx) override {
    for (Lane& lane : lanes_) {
      const auto q = std::find_if(lane.queue.begin(), lane.queue.end(),
                                  [&](const auto& e) { return e.first == ridx; });
      if (q != lane.queue.end()) {
        lane.queue.erase(q);
        refund(ridx);
        return true;
      }
      for (std::size_t s = 0; s < lane.slots.size(); ++s) {
        if (lane.slots[s].ridx == ridx) {
          lane.release(s);
          refund(ridx);
          return true;
        }
      }
    }
    return false;
  }

  std::vector<std::size_t> drain() override {
    std::vector<std::size_t> out;
    for (Lane& lane : lanes_) {
      for (const auto& [ridx, rq] : lane.queue) out.push_back(ridx);
      lane.queue.clear();
      while (!lane.slots.empty()) out.push_back(lane.release(0).ridx);
    }
    refund_all();
    return out;
  }

  void process_one(double now, std::vector<Completion>& out) override {
    advance_to(now, obs::Phase::kStall);
    for (Lane& lane : lanes_) {
      if (!lane.queue.empty() &&
          static_cast<std::int64_t>(lane.slots.size()) < lane.capacity) {
        admit(lane, out);
        return;
      }
    }
    for (Lane& lane : lanes_) step(lane, out);
  }

  void straggle(double factor, double until_s) override {
    slow_factor_ = factor;
    slow_until_ = until_s;
  }

  // No KV model: every request fits and no prefix is ever cached.
  bool fits_request(const core::TimedRequest&) const override { return true; }
  bool holds_prefix(const core::TimedRequest&) const override { return false; }
  // No engines, so no engine-level fault injection.
  std::int64_t engine_faults() const override { return 0; }
  std::int64_t engine_retries() const override { return 0; }

 private:
  struct Slot {
    std::size_t ridx = 0;
    const core::TimedRequest* rq = nullptr;
    std::int64_t index = 0;  // arena slot index
    double admit_s = 0;
    std::int64_t remaining = 0;  // decode tokens left after the prompt
    // Chunked prefill: prompt rows still to prefill after the
    // admit chunk. While > 0 the slot advances prompt chunks, not decode
    // tokens. Always 0 monolithic.
    std::int64_t prefill_left = 0;
    std::int64_t occ = 0;  // live sequences after admission
    // Speculative decode: the decoder's per-slot Bresenham accumulator on
    // the geometric acceptance expectation.
    double accept_acc = 0;
    obs::PhaseBreakdown phases{};
  };
  struct Lane {
    std::int64_t capacity = 1;
    double cost_factor = 1.0;
    bool degraded = false;
    std::deque<std::pair<std::size_t, const core::TimedRequest*>> queue;
    // The decoder walks live slots in arena index order (the chunked-
    // prefill budget goes to the lowest mid-prefill index first), so
    // `slots` stays sorted by it.
    std::vector<Slot> slots;
    // Free slot indices, last freed on top — the kernels::KVArena free list.
    std::vector<std::int64_t> free;

    void init(std::int64_t cap, double factor, bool is_degraded) {
      capacity = cap;
      cost_factor = factor;
      degraded = is_degraded;
      for (std::int64_t s = capacity - 1; s >= 0; --s) free.push_back(s);
    }
    // Takes the top free index and returns the slot's position in `slots`.
    std::size_t occupy(Slot slot) {
      slot.index = free.back();
      free.pop_back();
      const auto at = std::lower_bound(
          slots.begin(), slots.end(), slot.index,
          [](const Slot& a, std::int64_t index) { return a.index < index; });
      const auto it = slots.insert(at, std::move(slot));
      return static_cast<std::size_t>(it - slots.begin());
    }
    // Frees slots[s] and returns it.
    Slot release(std::size_t s) {
      Slot slot = std::move(slots[s]);
      free.push_back(slot.index);
      slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(s));
      return slot;
    }
  };

  double clock() const override { return clock_; }
  bool has_work() const override {
    for (const Lane& lane : lanes_) {
      if (!lane.queue.empty() || !lane.slots.empty()) return true;
    }
    return false;
  }
  double slowdown() const {
    return clock_ < slow_until_ ? slow_factor_ : 1.0;
  }

  // core::LaneCore's clock moves: every advance is charged to every live
  // slot's ledger.
  void charge(double dt, obs::Phase p) {
    if (dt <= 0) return;
    for (Lane& lane : lanes_) {
      for (Slot& slot : lane.slots) slot.phases.add(p, dt);
    }
  }
  void advance(double dt, obs::Phase p) {
    if (dt <= 0) return;
    clock_ += dt;
    charge(dt, p);
  }
  void advance_to(double t, obs::Phase p) {
    if (t <= clock_) return;
    charge(t - clock_, p);
    clock_ = t;
  }

  std::int64_t prefill_chunk() const {
    return spec_.serve().options().engine.prefill_chunk_tokens;
  }

  // Speculative decode: tokens one fused verify step advances a
  // slot — the decoder's Bresenham on the geometric acceptance expectation,
  // bit for bit (same truncated k_eff, same epsilon, same floor). 1 when
  // speculation is off or in measure mode.
  std::int64_t spec_advance(Slot& slot) const {
    const auto& eo = spec_.serve().options().engine;
    if (eo.spec_draft_tokens <= 1 || eo.spec_acceptance < 0) return 1;
    const std::int64_t ke =
        std::min<std::int64_t>(eo.spec_draft_tokens, slot.remaining);
    if (ke < 2) return 1;
    double e = 0, p = 1;
    for (std::int64_t j = 1; j < ke; ++j) {
      p *= eo.spec_acceptance;
      e += p;
    }
    slot.accept_acc += e;
    const auto nkeep = std::min<std::int64_t>(
        static_cast<std::int64_t>(std::floor(slot.accept_acc + 1e-12)),
        ke - 1);
    slot.accept_acc -= static_cast<double>(nkeep);
    return nkeep + 1;
  }

  // Admits the lane's queue head: the first prompt chunk (the whole prompt
  // when monolithic) runs inside the admit, which samples the first token
  // once the prompt is done.
  void admit(Lane& lane, std::vector<Completion>& out) {
    const auto [ridx, rq] = lane.queue.front();
    lane.queue.pop_front();
    const auto prompt = static_cast<std::int64_t>(rq->prompt.size());
    const std::int64_t chunk = prefill_chunk();
    const std::int64_t rows = chunk > 0 && chunk < prompt ? chunk : prompt;
    const std::size_t s = lane.occupy(Slot{.ridx = ridx,
                                           .rq = rq,
                                           .admit_s = clock_,
                                           .remaining = rq->new_tokens - 1,
                                           .prefill_left = prompt - rows});
    advance(cost_.admit_s(rows, lane.cost_factor) * slowdown(),
            obs::Phase::kPrefill);
    Slot& slot = lane.slots[s];
    slot.occ = static_cast<std::int64_t>(lanes_[0].slots.size() +
                                         lanes_[1].slots.size());
    if (slot.prefill_left <= 0 && slot.remaining <= 0) finish(lane, s, out);
  }

  // One fused iteration over the lane: mid-prefill slots share the chunk
  // budget in slot order, decode-ready slots advance one verify step each;
  // priced per part like the functional replica, then every finished slot
  // completes in slot order.
  void step(Lane& lane, std::vector<Completion>& out) {
    if (lane.slots.empty()) return;
    std::int64_t budget = prefill_chunk() > 0
                              ? prefill_chunk()
                              : std::numeric_limits<std::int64_t>::max();
    std::int64_t prefill_rows = 0, decode_rows = 0;
    for (Slot& slot : lane.slots) {
      if (slot.prefill_left > 0) {
        // The first decode token samples on the iteration that completes
        // the prompt (`remaining` already excludes it).
        const std::int64_t rows = std::min(slot.prefill_left, budget);
        budget -= rows;
        prefill_rows += rows;
        slot.prefill_left -= rows;
      } else {
        ++decode_rows;
        slot.remaining -= spec_advance(slot);
      }
    }
    const core::IterationCost::Step part = cost_.step(
        prefill_rows, decode_rows, lane.cost_factor * slowdown());
    advance(part.prefill, obs::Phase::kPrefill);
    advance(part.decode, obs::Phase::kDecodeCompute);
    advance(part.draft, obs::Phase::kDraftCompute);
    for (std::size_t s = 0; s < lane.slots.size();) {
      const Slot& slot = lane.slots[s];
      if (slot.prefill_left <= 0 && slot.remaining <= 0) {
        finish(lane, s, out);
      } else {
        ++s;
      }
    }
  }

  void finish(Lane& lane, std::size_t s, std::vector<Completion>& out) {
    Slot slot = lane.release(s);
    Completion c;
    c.ridx = slot.ridx;
    c.batch_lane = lane.degraded;
    c.admit_s = slot.admit_s;
    c.finish_s = clock_;
    c.occupancy = slot.occ;
    c.phases = slot.phases;
    // Placeholder of the right length: no real decode in the twin.
    c.tokens.assign(slot.rq->prompt.size() +
                        static_cast<std::size_t>(slot.rq->new_tokens),
                    0);
    refund(slot.ridx);
    out.push_back(std::move(c));
  }

  const FleetSpec& spec_;
  const core::IterationCost& cost_;
  Lane lanes_[2];  // primary, then the degraded batch lane
  double clock_ = 0;
  double slow_factor_ = 1.0;
  double slow_until_ = 0;
};

}  // namespace

FleetResult simulate_fleet(const FleetSpec& spec,
                           const std::vector<core::TimedRequest>& requests,
                           std::vector<ReplicaFault> faults,
                           std::uint64_t seed) {
  if (const auto errs = spec.validate(); !errs.empty()) {
    throw core::ConfigException(errs.front());
  }
  const auto& so = spec.serve().options();
  const core::IterationCost cost(so.virtual_service, so.engine,
                                 spec.serve().engine().model().layers);
  std::vector<std::unique_ptr<ReplicaBase>> replicas;
  for (std::int64_t r = 0; r < spec.options().replicas; ++r) {
    replicas.push_back(std::make_unique<SimReplica>(spec, cost));
  }
  return detail::run_fleet(spec, seed, requests, std::move(replicas),
                           std::move(faults));
}

}  // namespace dsinfer::fleet
