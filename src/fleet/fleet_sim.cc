#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/iteration_cost.h"
#include "core/server.h"
#include "sim/des.h"
#include "util/rng.h"

namespace dsinfer::fleet {

namespace {

using core::SloClass;
using core::TimedRequest;
using Outcome = core::RequestStats::Outcome;

std::size_t cls(SloClass s) { return s == SloClass::kBatch ? 1 : 0; }

struct Copy {
  std::int64_t replica = -1;
  bool is_hedge = false;
};

struct ReqState {
  bool counted = false;
  bool terminal = false;
  bool hedge_armed = false;
  bool hedge_pending = false;  // timer scheduled and not yet fired/cancelled
  sim::Simulator::EventId hedge_event = 0;
  std::vector<Copy> copies;
  // Attribution frontier (ISSUE 8): everything in [mark_s, next event] is
  // still unattributed; each router decision closes the interval behind it.
  // Mirrors the functional router's scheme so the twin satisfies the same
  // totality invariant.
  double mark_s = 0;
  double hedge_fire_s = -1;
};

// A replica modeled as the same one-action-at-a-time machine the functional
// Replica is — admit one request (prefill cost) when a lane has queue + free
// slot, else one decode iteration per active lane, primary lane first — with
// synthetic remaining-token counters instead of real decoders.
struct SimLane {
  std::int64_t capacity = 1;
  double cost_factor = 1.0;
  bool degraded = false;
  std::deque<std::size_t> queue;
  struct Slot {
    std::size_t ridx;
    std::int64_t remaining;  // decode iterations left after prefill
    double admit_s;
    std::int64_t occ;  // live sequences at admission
    // Chunked-prefill occupancy (ISSUE 9): prompt rows still to prefill
    // after the admit chunk. > 0 means the slot occupies capacity but
    // advances prompt chunks (priced prefill_token_s per row), not decode
    // iterations; decode starts when it reaches 0. Always 0 monolithic.
    std::int64_t prefill_left = 0;
    // Speculative-decode accumulator (ISSUE 10), mirroring the decoder's
    // per-slot Bresenham on the geometric acceptance expectation — same
    // arithmetic, same epsilon, so the DES advance matches the functional
    // replica step for step.
    double accept_acc = 0;
    // Arena slot index. The decoder walks live slots in index order (the
    // chunked-prefill budget goes to the lowest mid-prefill index first),
    // so `slots` stays sorted by it.
    std::int64_t index = 0;
  };
  std::vector<Slot> slots;
  // Free slot indices, last freed on top — the kernels::KVArena free list.
  std::vector<std::int64_t> free;

  void init(std::int64_t slots_cap, double factor, bool is_degraded) {
    capacity = slots_cap;
    cost_factor = factor;
    degraded = is_degraded;
    for (std::int64_t s = capacity - 1; s >= 0; --s) free.push_back(s);
  }
  void occupy(Slot slot) {
    slot.index = free.back();
    free.pop_back();
    slots.insert(std::lower_bound(slots.begin(), slots.end(), slot,
                                  [](const Slot& a, const Slot& b) {
                                    return a.index < b.index;
                                  }),
                 slot);
  }
  // Frees slots[s] and returns it.
  Slot release(std::size_t s) {
    const Slot slot = slots[s];
    free.push_back(slot.index);
    slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(s));
    return slot;
  }
};

struct SimReplica {
  SimLane primary, batch;
  // Copy presence + outstanding-work charge, keyed by request index. A copy
  // can be mid-admission (popped from the queue, slot not yet occupied), so
  // neither queue nor slots alone define presence.
  std::unordered_map<std::size_t, double> charge;
  double outstanding_s = 0;
  bool crashed = false;
  double stall_until = 0;
  double straggle_factor = 1.0;
  double straggle_until = 0;
  bool action_scheduled = false;
};

struct SimRun {
  const FleetSpec& spec;
  const FleetOptions& fo;
  const std::vector<TimedRequest>& requests;
  core::IterationCost cost;
  sim::Simulator sim;
  Rng rng;
  FleetResult result;
  std::vector<ReqState> st;
  std::vector<SimReplica> reps;
  std::vector<Breaker> breakers;
  std::deque<std::size_t> pending;
  std::int64_t in_system[2] = {0, 0};
  std::size_t terminal_count = 0;

  SimRun(const FleetSpec& s, const std::vector<TimedRequest>& reqs,
         std::uint64_t seed)
      : spec(s), fo(s.options()), requests(reqs),
        cost(s.serve().options().virtual_service, s.serve().options().engine,
             s.serve().engine().model().layers),
        rng(seed ^ 0x9e3779b97f4a7c15ull), st(reqs.size()),
        reps(static_cast<std::size_t>(fo.replicas)),
        breakers(static_cast<std::size_t>(fo.replicas)) {
    const auto& sopts = spec.serve().options();
    for (auto& rep : reps) {
      rep.primary.init(sopts.max_batch, 1.0, false);
      rep.batch.init(std::max<std::int64_t>(1, sopts.max_batch / 2),
                     sopts.virtual_service.degraded_factor, true);
    }
    result.stats.resize(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      auto& fs = result.stats[i];
      fs.base.id = reqs[i].id;
      fs.base.arrival_s = reqs[i].arrival_s;
      fs.base.deadline_s = reqs[i].deadline_s;
      fs.slo = reqs[i].slo;
    }
    result.counters.requests = static_cast<std::int64_t>(reqs.size());
  }

  bool done() const { return terminal_count >= requests.size(); }

  const SloLaneOptions& lane_opts(SloClass s) const {
    return s == SloClass::kBatch ? fo.batch : fo.latency;
  }

  SimLane& lane_of(SimReplica& rep, const TimedRequest& rq) {
    return (rq.slo == SloClass::kBatch && fo.batch_lane) ? rep.batch
                                                         : rep.primary;
  }

  double straggle(const SimReplica& rep, double t) const {
    return t < rep.straggle_until ? rep.straggle_factor : 1.0;
  }

  // Speculative decode (ISSUE 10): modeled advance of one fused verify step
  // for a slot with `remaining` tokens to go — the decoder's per-step
  // Bresenham on the geometric acceptance expectation, bit-for-bit (same
  // truncated k_eff, same epsilon, same floor), so the DES token clock
  // agrees with the batcher replay's. Returns 1 when speculation is off or
  // in measure mode (unknown acceptance models no multi-token advance).
  std::int64_t spec_advance(SimLane::Slot& slot) const {
    const auto& eo = spec.serve().options().engine;
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

  // Chunked prefill (ISSUE 9): prompt rows the admit action runs for a
  // prompt with `left` unprefilled tokens (0 = monolithic: everything runs
  // inside the admit action).
  std::int64_t chunk_rows(std::int64_t left) const {
    const std::int64_t chunk =
        spec.serve().options().engine.prefill_chunk_tokens;
    return (chunk > 0 && chunk < left) ? chunk : left;
  }

  // Per-iteration global prefill budget, mirroring RaggedDecoder::step():
  // mid-prefill slots share prefill_chunk_tokens prompt rows per fused
  // iteration in slot order (unbounded when monolithic — but then
  // prefill_left is always 0 anyway).
  std::int64_t chunk_budget() const {
    const std::int64_t chunk =
        spec.serve().options().engine.prefill_chunk_tokens;
    return chunk > 0 ? chunk : std::numeric_limits<std::int64_t>::max();
  }

  bool has_work(const SimReplica& rep) const {
    return !rep.primary.queue.empty() || !rep.primary.slots.empty() ||
           !rep.batch.queue.empty() || !rep.batch.slots.empty();
  }

  bool all_crashed() const {
    for (const auto& rep : reps) {
      if (!rep.crashed) return false;
    }
    return true;
  }

  std::vector<ReplicaLoadView> views() const {
    std::vector<ReplicaLoadView> v(reps.size());
    for (std::size_t r = 0; r < reps.size(); ++r) {
      v[r].dispatchable = breakers[r].dispatchable();
      v[r].outstanding_s = reps[r].outstanding_s;
    }
    return v;
  }

  void terminalize(std::size_t i) {
    st[i].terminal = true;
    ++terminal_count;
    if (st[i].counted) {
      --in_system[cls(requests[i].slo)];
      st[i].counted = false;
    }
    if (st[i].hedge_pending) {
      sim.cancel(st[i].hedge_event);  // first-wins: dead timers die early
      st[i].hedge_pending = false;
    }
  }

  // Removes request i's copy from replica r wherever it is (queue, slot, or
  // mid-admission) and refunds its outstanding-work charge.
  void remove_copy(std::size_t r, std::size_t i) {
    auto& rep = reps[r];
    auto it = rep.charge.find(i);
    if (it == rep.charge.end()) return;
    rep.outstanding_s = std::max(0.0, rep.outstanding_s - it->second);
    rep.charge.erase(it);
    for (SimLane* lane : {&rep.primary, &rep.batch}) {
      auto q = std::find(lane->queue.begin(), lane->queue.end(), i);
      if (q != lane->queue.end()) {
        lane->queue.erase(q);
        return;
      }
      auto sl = std::find_if(lane->slots.begin(), lane->slots.end(),
                             [&](const SimLane::Slot& s) {
                               return s.ridx == i;
                             });
      if (sl != lane->slots.end()) {
        lane->release(static_cast<std::size_t>(sl - lane->slots.begin()));
        return;
      }
    }
  }

  void cancel_copies(std::size_t i) {
    for (const Copy& c : st[i].copies) {
      remove_copy(static_cast<std::size_t>(c.replica), i);
    }
    st[i].copies.clear();
  }

  void shed(std::size_t i, ShedReason reason) {
    cancel_copies(i);
    auto& fs = result.stats[i];
    fs.reason = reason;
    fs.base.outcome = Outcome::kShed;
    fs.base.start_s = fs.base.finish_s = sim.now();
    fs.base.attr.add(obs::Phase::kShed, sim.now() - st[i].mark_s);
    st[i].mark_s = sim.now();
    ++result.counters.sheds;
    switch (reason) {
      case ShedReason::kQueueFull: ++result.counters.shed_queue_full; break;
      case ShedReason::kAdmissionDeadline:
        ++result.counters.shed_deadline;
        break;
      case ShedReason::kNoHealthyReplica:
        ++result.counters.shed_no_healthy;
        break;
      default: break;
    }
    terminalize(i);
  }

  void fail_budget(std::size_t i) {
    cancel_copies(i);
    auto& fs = result.stats[i];
    fs.reason = ShedReason::kFailoverBudget;
    fs.base.outcome = Outcome::kFailed;
    fs.base.start_s = fs.base.finish_s = sim.now();
    fs.base.attr.add(obs::Phase::kFailover, sim.now() - st[i].mark_s);
    st[i].mark_s = sim.now();
    ++result.counters.failures;
    terminalize(i);
  }

  std::int64_t dispatch_copy(std::size_t i, std::int64_t exclude,
                             bool is_hedge) {
    const auto v = views();
    const std::int64_t r = route_choose(
        fo.policy, fo, v, prefix_hash(requests[i].prompt, fo.affinity_prefix),
        exclude, rng);
    if (r < 0) return -1;
    auto& rep = reps[static_cast<std::size_t>(r)];
    SimLane& lane = lane_of(rep, requests[i]);
    const double est = request_estimate_s(cost, requests[i], lane.degraded);
    rep.charge.emplace(i, est);
    rep.outstanding_s += est;
    lane.queue.push_back(i);
    st[i].copies.push_back(Copy{r, is_hedge});
    ++result.counters.dispatches;
    if (!is_hedge) {
      // Hedge dispatches never move the frontier: the primary wait keeps
      // accruing and is split at completion (hedge_wait vs admission_wait).
      result.stats[i].base.attr.add(obs::Phase::kRouterQueue,
                                    sim.now() - st[i].mark_s);
      st[i].mark_s = sim.now();
    }
    if (!is_hedge && requests[i].slo == SloClass::kLatency &&
        fo.latency.hedging && !st[i].hedge_armed) {
      st[i].hedge_armed = true;
      st[i].hedge_pending = true;
      st[i].hedge_event = sim.schedule_after(
          fo.latency.hedge_delay_s, [this, i] { fire_hedge(i); });
    }
    ensure_action(static_cast<std::size_t>(r));
    return r;
  }

  void try_dispatch(std::size_t i) {
    const auto& rq = requests[i];
    const auto& res = spec.serve().options().resilience;
    if (res.admission_control && rq.deadline_s < core::kNoDeadline) {
      if (sim.now() + request_estimate_s(cost, rq, false) > rq.deadline_s) {
        shed(i, ShedReason::kAdmissionDeadline);
        return;
      }
    }
    if (dispatch_copy(i, -1, false) < 0) {
      if (all_crashed()) {
        shed(i, ShedReason::kNoHealthyReplica);
      } else {
        pending.push_back(i);
      }
    }
  }

  void arrival(std::size_t i) {
    const auto& rq = requests[i];
    st[i].mark_s = rq.arrival_s;
    if (in_system[cls(rq.slo)] >= lane_opts(rq.slo).queue_limit) {
      shed(i, ShedReason::kQueueFull);
      return;
    }
    ++in_system[cls(rq.slo)];
    st[i].counted = true;
    try_dispatch(i);
  }

  void fire_hedge(std::size_t i) {
    st[i].hedge_pending = false;
    if (st[i].terminal || st[i].copies.size() != 1) return;
    const std::int64_t primary = st[i].copies.front().replica;
    if (dispatch_copy(i, primary, true) >= 0) {
      ++result.counters.hedges;
      result.stats[i].hedged = true;
      st[i].hedge_fire_s = sim.now();
    }
  }

  void failover(std::size_t i, std::int64_t exclude) {
    if (result.stats[i].failovers >= fo.failover_budget) {
      fail_budget(i);
      return;
    }
    ++result.stats[i].failovers;
    ++result.counters.failovers;
    result.stats[i].base.attr.add(obs::Phase::kFailover,
                                  sim.now() - st[i].mark_s);
    st[i].mark_s = sim.now();
    if (dispatch_copy(i, exclude, false) < 0) {
      if (all_crashed()) {
        shed(i, ShedReason::kNoHealthyReplica);
      } else {
        pending.push_back(i);
      }
    }
  }

  void breaker_failure(std::size_t r) {
    if (!breakers[r].on_failure(sim.now(), fo.breaker_threshold)) return;
    ++result.counters.breaker_opens;
    auto& rep = reps[r];
    std::vector<std::size_t> drained;
    drained.reserve(rep.charge.size());
    for (const auto& [i, est] : rep.charge) drained.push_back(i);
    std::sort(drained.begin(), drained.end());  // deterministic order
    rep.charge.clear();
    rep.outstanding_s = 0;
    for (SimLane* lane : {&rep.primary, &rep.batch}) {
      lane->queue.clear();
      while (!lane->slots.empty()) lane->release(0);
    }
    for (std::size_t i : drained) {
      auto& copies = st[i].copies;
      copies.erase(std::remove_if(copies.begin(), copies.end(),
                                  [&](const Copy& c) {
                                    return c.replica ==
                                           static_cast<std::int64_t>(r);
                                  }),
                   copies.end());
      if (st[i].terminal) continue;
      if (!copies.empty()) {
        ++result.counters.copies_dropped;
        continue;
      }
      failover(i, static_cast<std::int64_t>(r));
    }
  }

  void drain_pending() {
    std::deque<std::size_t> keep;
    while (!pending.empty()) {
      const std::size_t i = pending.front();
      pending.pop_front();
      if (st[i].terminal) continue;
      const auto& res = spec.serve().options().resilience;
      if (res.admission_control && sim.now() > requests[i].deadline_s) {
        shed(i, ShedReason::kAdmissionDeadline);
        continue;
      }
      if (dispatch_copy(i, -1, false) < 0) keep.push_back(i);
    }
    pending = std::move(keep);
  }

  void probe_tick() {
    if (done()) return;
    const double now = sim.now();
    for (std::size_t r = 0; r < reps.size(); ++r) {
      ++result.counters.probes;
      const auto was = breakers[r].state;
      breakers[r].maybe_half_open(now, fo.breaker_cooldown_s);
      if (was != breakers[r].state) ++result.counters.breaker_half_opens;
      const bool responsive = !reps[r].crashed && now >= reps[r].stall_until;
      if (responsive) {
        const bool closing = breakers[r].state == Breaker::State::kHalfOpen;
        breakers[r].on_success();
        if (closing) ++result.counters.breaker_closes;
      } else {
        ++result.counters.probe_failures;
        breaker_failure(r);
      }
    }
    if (all_crashed()) {
      while (!pending.empty()) {
        const std::size_t i = pending.front();
        pending.pop_front();
        if (!st[i].terminal) shed(i, ShedReason::kNoHealthyReplica);
      }
    } else {
      drain_pending();
    }
    if (!done()) {
      sim.schedule_after(fo.probe_interval_s, [this] { probe_tick(); });
    }
  }

  void ensure_action(std::size_t r) {
    auto& rep = reps[r];
    if (rep.crashed || rep.action_scheduled || !has_work(rep)) return;
    rep.action_scheduled = true;
    sim.schedule_at(std::max(sim.now(), rep.stall_until),
                    [this, r] { action(r); });
  }

  void action(std::size_t r) {
    auto& rep = reps[r];
    rep.action_scheduled = false;
    if (rep.crashed) return;
    if (sim.now() < rep.stall_until) {
      rep.action_scheduled = true;
      sim.schedule_at(rep.stall_until, [this, r] { action(r); });
      return;
    }
    const double f = straggle(rep, sim.now());
    for (SimLane* lane : {&rep.primary, &rep.batch}) {
      if (!lane->queue.empty() &&
          static_cast<std::int64_t>(lane->slots.size()) < lane->capacity) {
        const std::size_t i = lane->queue.front();
        lane->queue.pop_front();
        const double start = sim.now();
        const bool degraded = lane->degraded;
        rep.action_scheduled = true;
        // Admit runs only the first prefill chunk; the rest of the prompt
        // advances through the finish_lane iterations below.
        const std::int64_t first = chunk_rows(
            static_cast<std::int64_t>(requests[i].prompt.size()));
        sim.schedule_after(
            cost.admit_s(first, lane->cost_factor) * f,
            [this, r, i, start, degraded] { finish_admit(r, i, start,
                                                         degraded); });
        return;
      }
    }
    step_lane(r, 0);  // false: raced with a drain; nothing to do
  }

  // One fused iteration of the first lane at or after `li` that holds
  // slots, primary lane first; each lane's iteration is priced and finished
  // before the next starts — the order the functional replica steps its
  // lanes in. Mid-prefill slots share the chunk budget in slot order and
  // advance prompt rows; decode-ready slots ride the decode lane. Returns
  // false when no such lane holds slots.
  bool step_lane(std::size_t r, std::size_t li) {
    auto& rep = reps[r];
    for (; li < 2; ++li) {
      const SimLane& lane = li == 0 ? rep.primary : rep.batch;
      if (lane.slots.empty()) continue;
      std::int64_t budget = chunk_budget();
      std::int64_t prefill_rows = 0;
      bool any_decode = false;
      for (const auto& slot : lane.slots) {
        if (slot.prefill_left > 0) {
          const std::int64_t rows = std::min(slot.prefill_left, budget);
          budget -= rows;
          prefill_rows += rows;
        } else {
          any_decode = true;
        }
      }
      rep.action_scheduled = true;
      sim.schedule_after(cost.step(prefill_rows, any_decode ? 1 : 0, 1.0).span *
                             lane.cost_factor * straggle(rep, sim.now()),
                         [this, r, li] { finish_lane(r, li); });
      return true;
    }
    return false;
  }

  void finish_admit(std::size_t r, std::size_t i, double start,
                    bool degraded) {
    auto& rep = reps[r];
    rep.action_scheduled = false;
    if (rep.crashed) return;
    // Stale if the copy was cancelled or drained mid-admission.
    if (!st[i].terminal && rep.charge.count(i) > 0) {
      SimLane& lane = degraded ? rep.batch : rep.primary;
      const std::int64_t occ =
          static_cast<std::int64_t>(rep.primary.slots.size()) +
          static_cast<std::int64_t>(rep.batch.slots.size()) + 1;
      const std::int64_t P =
          static_cast<std::int64_t>(requests[i].prompt.size());
      const std::int64_t prefill_left = P - chunk_rows(P);
      const std::int64_t remaining = requests[i].new_tokens - 1;
      if (prefill_left <= 0 && remaining <= 0) {
        complete(r, i, start, occ, degraded);
      } else {
        lane.occupy(SimLane::Slot{i, remaining, start, occ, prefill_left});
      }
    }
    ensure_action(r);
  }

  void finish_lane(std::size_t r, std::size_t li) {
    auto& rep = reps[r];
    rep.action_scheduled = false;
    if (rep.crashed) return;
    SimLane& lane = li == 0 ? rep.primary : rep.batch;
    std::int64_t budget = chunk_budget();
    for (std::size_t s = 0; s < lane.slots.size();) {
      auto& slot = lane.slots[s];
      if (slot.prefill_left > 0) {
        // Mid-prefill: this iteration advanced a prompt chunk (its share of
        // the lane's global budget, slot order), not a decode token. The
        // first decode token samples on the iteration that completes the
        // prompt (remaining was set at admit).
        const std::int64_t rows = std::min(slot.prefill_left, budget);
        budget -= rows;
        slot.prefill_left -= rows;
      } else {
        slot.remaining -= spec_advance(slot);
      }
      if (slot.prefill_left <= 0 && slot.remaining <= 0) {
        const SimLane::Slot done = lane.release(s);
        complete(r, done.ridx, done.admit_s, done.occ, lane.degraded);
      } else {
        ++s;
      }
    }
    if (li == 0 && step_lane(r, 1)) return;
    ensure_action(r);
  }

  void complete(std::size_t r, std::size_t i, double admit_s,
                std::int64_t occ, bool degraded) {
    auto& copies = st[i].copies;
    bool winner_is_hedge = false;
    bool found = false;
    for (auto it = copies.begin(); it != copies.end(); ++it) {
      if (it->replica == static_cast<std::int64_t>(r)) {
        winner_is_hedge = it->is_hedge;
        copies.erase(it);
        found = true;
        break;
      }
    }
    remove_copy(r, i);  // refund the outstanding-work charge
    if (!found || st[i].terminal) return;
    for (const Copy& loser : copies) {
      remove_copy(static_cast<std::size_t>(loser.replica), i);
      ++result.counters.hedge_cancels;
    }
    copies.clear();
    breakers[r].on_success();
    auto& fs = result.stats[i];
    fs.replica = static_cast<std::int64_t>(r);
    fs.hedge_won = winner_is_hedge;
    fs.base.start_s = admit_s;
    fs.base.finish_s = sim.now();
    if (winner_is_hedge && st[i].hedge_fire_s >= st[i].mark_s) {
      fs.base.attr.add(obs::Phase::kHedgeWait,
                       st[i].hedge_fire_s - st[i].mark_s);
      fs.base.attr.add(obs::Phase::kAdmissionWait,
                       admit_s - st[i].hedge_fire_s);
    } else {
      const double wait = admit_s - st[i].mark_s;
      fs.base.attr.add(obs::Phase::kAdmissionWait, std::max(0.0, wait));
      if (wait < 0) fs.base.attr.add(obs::Phase::kFailover, wait);
    }
    // The twin has no replica-side ledger: the whole service residency is
    // its coarse service phase (prefill and stall are not modeled apart).
    fs.base.attr.add(obs::Phase::kDecodeCompute, sim.now() - admit_s);
    st[i].mark_s = sim.now();
    // Placeholder of the right LENGTH (no real decode in the twin).
    fs.base.tokens.assign(
        requests[i].prompt.size() +
            static_cast<std::size_t>(requests[i].new_tokens),
        0);
    fs.base.batch_size = occ;
    fs.base.degraded = degraded;
    fs.base.outcome = sim.now() > fs.base.deadline_s
                          ? Outcome::kTimedOut
                          : (degraded ? Outcome::kDegraded : Outcome::kOk);
    ++result.counters.served;
    if (fs.base.outcome == Outcome::kTimedOut) ++result.counters.timeouts;
    if (degraded) ++result.counters.degraded;
    if (fs.hedge_won) ++result.counters.hedge_wins;
    terminalize(i);
  }

  void apply_fault(const ReplicaFault& f) {
    const auto r = static_cast<std::size_t>(f.replica);
    if (r >= reps.size()) return;
    switch (f.kind) {
      case ReplicaFault::Kind::kCrash:
        reps[r].crashed = true;
        ++result.counters.crashes;
        break;
      case ReplicaFault::Kind::kStall:
        reps[r].stall_until =
            std::max(reps[r].stall_until, f.at_s + f.duration_s);
        ++result.counters.stalls;
        break;
      case ReplicaFault::Kind::kStraggle:
        reps[r].straggle_factor = f.factor;
        reps[r].straggle_until =
            f.duration_s > 0 ? f.at_s + f.duration_s : kNever;
        ++result.counters.stragglers;
        break;
    }
  }
};

}  // namespace

FleetResult simulate_fleet(const FleetSpec& spec,
                           const std::vector<core::TimedRequest>& requests,
                           std::vector<ReplicaFault> faults,
                           std::uint64_t seed) {
  if (const auto errs = spec.validate(); !errs.empty()) {
    throw core::ConfigException(errs.front());
  }
  SimRun run(spec, requests, seed);

  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return requests[a].arrival_s < requests[b].arrival_s;
                   });
  for (std::size_t i : order) {
    run.sim.schedule_at(requests[i].arrival_s,
                        [&run, i] { run.arrival(i); });
  }
  for (const ReplicaFault& f : faults) {
    run.sim.schedule_at(f.at_s, [&run, f] { run.apply_fault(f); });
  }
  if (!requests.empty()) {
    run.sim.schedule_at(spec.options().probe_interval_s,
                        [&run] { run.probe_tick(); });
  }
  run.sim.run();

  if (const std::string leak = check_accounting(run.result); !leak.empty()) {
    throw std::logic_error("simulate_fleet accounting leak: " + leak);
  }
  return std::move(run.result);
}

}  // namespace dsinfer::fleet
