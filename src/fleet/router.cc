#include "fleet/router.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsinfer::fleet {

namespace {

using core::RequestStats;
using core::SloClass;
using core::TimedRequest;
using Outcome = core::RequestStats::Outcome;

double to_us(double s) { return s * 1e6; }

constexpr std::int64_t kRouterTrack = 0;

std::size_t cls(SloClass s) { return s == SloClass::kBatch ? 1 : 0; }

// One live copy of a request on some replica (a request has one copy, or two
// while a hedge race is in flight).
struct Copy {
  std::int64_t replica = -1;
  bool is_hedge = false;
};

struct ReqState {
  bool counted = false;   // holds an in-system slot of its class
  bool terminal = false;
  bool hedge_armed = false;
  std::vector<Copy> copies;
  // Attribution frontier (ISSUE 8): everything in [arrival_s, mark_s] is
  // already charged to a phase. Advanced at non-hedge dispatch
  // (router_queue), failover (the lost copy's time collapses into
  // failover), and terminal shed/fail; the winning copy's completion
  // closes [mark_s, finish_s].
  double mark_s = 0;
  double hedge_fire_s = -1;  // when the hedge copy was dispatched
};

// The whole event loop's state for one run, so the handlers can read like
// the protocol they implement instead of threading a dozen parameters
// around.
struct Run {
  const FleetSpec& spec;
  const FleetOptions& fo;
  const std::vector<TimedRequest>& requests;

  core::IterationCost cost;
  std::vector<std::unique_ptr<ReplicaBase>> replicas;
  std::vector<Breaker> breakers;
  Rng rng;
  FleetResult result;
  std::vector<ReqState> st;
  std::deque<std::size_t> pending;  // arrived, waiting for a healthy replica
  std::int64_t in_system[2] = {0, 0};
  std::size_t terminal_count = 0;
  // Hedge timers: (fire time, request index), earliest first.
  std::priority_queue<std::pair<double, std::size_t>,
                      std::vector<std::pair<double, std::size_t>>,
                      std::greater<>>
      hedges;
  bool tracing = false;

  Run(const FleetSpec& s, std::uint64_t seed,
      const std::vector<TimedRequest>& reqs,
      std::vector<std::unique_ptr<ReplicaBase>> reps)
      : spec(s), fo(s.options()), requests(reqs),
        cost(s.serve().options().virtual_service, s.serve().options().engine,
             s.serve().engine().model().layers),
        replicas(std::move(reps)), breakers(replicas.size()),
        rng(seed ^ 0x9e3779b97f4a7c15ull), st(reqs.size()) {
    const std::size_t n_replicas = replicas.size();
    result.stats.resize(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      auto& fs = result.stats[i];
      fs.base.id = reqs[i].id;
      fs.base.arrival_s = reqs[i].arrival_s;
      fs.base.deadline_s = reqs[i].deadline_s;
      fs.slo = reqs[i].slo;
    }
    result.counters.requests = static_cast<std::int64_t>(reqs.size());
    tracing = obs::trace_enabled();
    if (tracing) {
      auto& rec = obs::TraceRecorder::instance();
      rec.set_track_name(obs::kServerPid, kRouterTrack, "fleet router");
      for (std::size_t r = 0; r < n_replicas; ++r) {
        rec.set_track_name(obs::kServerPid, replica_track(r),
                           "replica " + std::to_string(r));
      }
      for (const auto& rq : reqs) {
        rec.set_track_name(obs::kServerPid, request_track(rq.id),
                           "req " + std::to_string(rq.id));
        rec.instant_at(obs::kServerPid, request_track(rq.id),
                       to_us(rq.arrival_s), "fleet", "arrival");
      }
    }
  }

  std::int64_t replica_track(std::size_t r) const {
    return 1 + static_cast<std::int64_t>(r);
  }
  std::int64_t request_track(std::int64_t id) const {
    return 1 + fo.replicas + id;
  }
  void req_instant(std::size_t i, double now, std::string name) {
    if (tracing) {
      obs::TraceRecorder::instance().instant_at(
          obs::kServerPid, request_track(requests[i].id), to_us(now), "fleet",
          std::move(name));
    }
  }
  void replica_instant(std::size_t r, double now, std::string name) {
    if (tracing) {
      obs::TraceRecorder::instance().instant_at(
          obs::kServerPid, replica_track(r), to_us(now), "fleet",
          std::move(name));
    }
  }

  const SloLaneOptions& lane(SloClass s) const {
    return s == SloClass::kBatch ? fo.batch : fo.latency;
  }

  bool all_crashed() const {
    for (const auto& r : replicas) {
      if (!r->crashed()) return false;
    }
    return true;
  }

  // `rq` (optional) is the request being routed: when present, each view's
  // prefix_warm reflects whether that replica's KV prefix cache actually
  // holds a prefix of it (ISSUE 7 warm routing; false when the prefix cache
  // is disabled, so older configs route exactly as before).
  std::vector<ReplicaLoadView> views(const TimedRequest* rq = nullptr) const {
    std::vector<ReplicaLoadView> v(replicas.size());
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      v[r].dispatchable = breakers[r].dispatchable();
      v[r].outstanding_s = replicas[r]->outstanding_s();
      if (rq) v[r].prefix_warm = replicas[r]->holds_prefix(*rq);
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
  }

  void cancel_copies(std::size_t i) {
    for (const Copy& c : st[i].copies) {
      replicas[static_cast<std::size_t>(c.replica)]->cancel(i);
    }
    st[i].copies.clear();
  }

  void shed(std::size_t i, double now, ShedReason reason) {
    cancel_copies(i);
    auto& fs = result.stats[i];
    fs.reason = reason;
    fs.base.outcome = Outcome::kShed;
    fs.base.start_s = fs.base.finish_s = now;
    fs.base.attr.add(obs::Phase::kShed, now - st[i].mark_s);
    st[i].mark_s = now;
    ++result.counters.sheds;
    switch (reason) {
      case ShedReason::kQueueFull: ++result.counters.shed_queue_full; break;
      case ShedReason::kAdmissionDeadline:
        ++result.counters.shed_deadline;
        break;
      case ShedReason::kNoHealthyReplica:
        ++result.counters.shed_no_healthy;
        break;
      case ShedReason::kArenaPages:
        ++result.counters.shed_arena_pages;
        break;
      default: break;
    }
    terminalize(i);
    req_instant(i, now, std::string("shed: ") + shed_reason_name(reason));
  }

  void fail_budget(std::size_t i, double now) {
    cancel_copies(i);
    auto& fs = result.stats[i];
    fs.reason = ShedReason::kFailoverBudget;
    fs.base.outcome = Outcome::kFailed;
    fs.base.start_s = fs.base.finish_s = now;
    fs.base.attr.add(obs::Phase::kFailover, now - st[i].mark_s);
    st[i].mark_s = now;
    ++result.counters.failures;
    terminalize(i);
    req_instant(i, now, "failed: failover budget exhausted");
  }

  // Routes one copy of request i (excluding `exclude`, -1 for none) and
  // enqueues it. Returns the chosen replica, or -1 when none is dispatchable.
  std::int64_t dispatch_copy(std::size_t i, double now, std::int64_t exclude,
                             bool is_hedge) {
    const auto v = views(&requests[i]);
    const std::int64_t r = route_choose(
        fo.policy, fo, v, prefix_hash(requests[i].prompt, fo.affinity_prefix),
        exclude, rng);
    if (r < 0) return -1;
    replicas[static_cast<std::size_t>(r)]->enqueue(i, &requests[i]);
    st[i].copies.push_back(Copy{r, is_hedge});
    if (!is_hedge) {
      // Hedge dispatches don't advance the frontier: the primary is still
      // in flight, and the race is attributed at completion.
      result.stats[i].base.attr.add(obs::Phase::kRouterQueue,
                                    now - st[i].mark_s);
      st[i].mark_s = now;
    }
    ++result.counters.dispatches;
    req_instant(i, now,
                std::string(is_hedge ? "hedge -> r" : "dispatch -> r") +
                    std::to_string(r));
    if (!is_hedge && requests[i].slo == SloClass::kLatency &&
        fo.latency.hedging && !st[i].hedge_armed) {
      hedges.emplace(now + fo.latency.hedge_delay_s, i);
      st[i].hedge_armed = true;
    }
    return r;
  }

  // First dispatch attempt (arrival or pending drain). Applies admission
  // control; parks the request in `pending` when no replica is dispatchable.
  void try_dispatch(std::size_t i, double now) {
    const auto& rq = requests[i];
    // Structural KV-page rejection (ISSUE 7): if the request's worst-case
    // pages can never fit a replica's pool, no amount of waiting helps —
    // shed typed now. Replicas share one spec, so probing any one suffices;
    // this also guarantees every enqueued request is eventually admissible
    // (the replica's page-budget gate never wedges on an impossible head).
    if (!replicas.front()->fits_request(rq)) {
      shed(i, now, ShedReason::kArenaPages);
      return;
    }
    const auto& res = spec.serve().options().resilience;
    // Priced like the replica's ledger entry, at full fidelity: prompt and
    // speculation terms included.
    if (res.admission_control && rq.deadline_s < core::kNoDeadline) {
      if (now + request_estimate_s(cost, rq, false) > rq.deadline_s) {
        shed(i, now, ShedReason::kAdmissionDeadline);
        return;
      }
    }
    if (dispatch_copy(i, now, -1, false) < 0) {
      if (all_crashed()) {
        shed(i, now, ShedReason::kNoHealthyReplica);
      } else {
        pending.push_back(i);  // a probe tick re-drains once a breaker closes
      }
    }
  }

  void arrival(std::size_t i, double now) {
    const auto& rq = requests[i];
    st[i].mark_s = rq.arrival_s;  // attribution starts at arrival
    if (in_system[cls(rq.slo)] >= lane(rq.slo).queue_limit) {
      shed(i, now, ShedReason::kQueueFull);  // backpressure, typed
      return;
    }
    ++in_system[cls(rq.slo)];
    st[i].counted = true;
    try_dispatch(i, now);
  }

  void fire_hedge(std::size_t i, double now) {
    // Fire only while exactly the primary copy is still in flight.
    if (st[i].terminal || st[i].copies.size() != 1) return;
    const std::int64_t primary = st[i].copies.front().replica;
    if (dispatch_copy(i, now, primary, true) >= 0) {
      ++result.counters.hedges;
      result.stats[i].hedged = true;
      st[i].hedge_fire_s = now;
    }
  }

  // Re-dispatches request i after its only copy was lost (crash drain or
  // engine failure on `exclude`), charging the failover budget.
  void failover(std::size_t i, double now, std::int64_t exclude) {
    if (result.stats[i].failovers >= fo.failover_budget) {
      fail_budget(i, now);
      return;
    }
    // The lost copy's whole life since the frontier (replica queue time,
    // any partial service) collapses into the failover phase: that work
    // bought the request nothing.
    result.stats[i].base.attr.add(obs::Phase::kFailover, now - st[i].mark_s);
    st[i].mark_s = now;
    ++result.stats[i].failovers;
    ++result.counters.failovers;
    req_instant(i, now, "failover from r" + std::to_string(exclude));
    if (dispatch_copy(i, now, exclude, false) < 0) {
      if (all_crashed()) {
        shed(i, now, ShedReason::kNoHealthyReplica);
      } else {
        pending.push_back(i);
      }
    }
  }

  // The breaker opened on replica r: its outstanding copies are lost and
  // must fail over (or be dropped if a hedge twin survives elsewhere).
  void breaker_failure(std::size_t r, double now) {
    if (!breakers[r].on_failure(now, fo.breaker_threshold)) return;
    ++result.counters.breaker_opens;
    replica_instant(r, now, "breaker open");
    for (std::size_t i : replicas[r]->drain()) {
      auto& copies = st[i].copies;
      copies.erase(std::remove_if(copies.begin(), copies.end(),
                                  [&](const Copy& c) {
                                    return c.replica ==
                                           static_cast<std::int64_t>(r);
                                  }),
                   copies.end());
      if (st[i].terminal) continue;
      if (!copies.empty()) {
        ++result.counters.copies_dropped;  // hedge twin still racing
        continue;
      }
      failover(i, now, static_cast<std::int64_t>(r));
    }
  }

  void probe_tick(double now) {
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      ++result.counters.probes;
      const auto was = breakers[r].state;
      breakers[r].maybe_half_open(now, fo.breaker_cooldown_s);
      if (was != breakers[r].state) {
        ++result.counters.breaker_half_opens;
        replica_instant(r, now, "breaker half-open");
      }
      if (replicas[r]->responsive(now)) {
        const bool closing = breakers[r].state == Breaker::State::kHalfOpen;
        breakers[r].on_success();
        if (closing) {
          ++result.counters.breaker_closes;
          replica_instant(r, now, "breaker closed");
        }
      } else {
        ++result.counters.probe_failures;
        breaker_failure(r, now);
      }
    }
    if (all_crashed()) {
      // Nothing will ever serve again: every parked request sheds typed now,
      // and arrivals shed on arrival — the no-hang guarantee.
      while (!pending.empty()) {
        const std::size_t i = pending.front();
        pending.pop_front();
        if (!st[i].terminal) shed(i, now, ShedReason::kNoHealthyReplica);
      }
      return;
    }
    drain_pending(now);
  }

  void drain_pending(double now) {
    std::deque<std::size_t> keep;
    while (!pending.empty()) {
      const std::size_t i = pending.front();
      pending.pop_front();
      if (st[i].terminal) continue;
      const auto& rq = requests[i];
      const auto& res = spec.serve().options().resilience;
      if (res.admission_control && now > rq.deadline_s) {
        shed(i, now, ShedReason::kAdmissionDeadline);
        continue;
      }
      if (dispatch_copy(i, now, -1, false) < 0) keep.push_back(i);
    }
    pending = std::move(keep);
  }

  void apply_fault(const ReplicaFault& f, double now) {
    const auto r = static_cast<std::size_t>(f.replica);
    if (r >= replicas.size()) return;
    switch (f.kind) {
      case ReplicaFault::Kind::kCrash:
        replicas[r]->crash();
        ++result.counters.crashes;
        replica_instant(r, now, "crash");
        break;
      case ReplicaFault::Kind::kStall:
        replicas[r]->stall_until(f.at_s + f.duration_s);
        ++result.counters.stalls;
        replica_instant(r, now, "stall");
        break;
      case ReplicaFault::Kind::kStraggle:
        replicas[r]->straggle(
            f.factor, f.duration_s > 0 ? f.at_s + f.duration_s : kNever);
        ++result.counters.stragglers;
        replica_instant(r, now, "straggle");
        break;
    }
  }

  void handle_completion(std::size_t r, Completion c, double now) {
    const std::size_t i = c.ridx;
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
    // A completion whose copy is gone (drained/cancelled between the action
    // and its delivery) is stale; the request's fate is decided elsewhere.
    if (!found || st[i].terminal) return;
    auto& fs = result.stats[i];
    if (c.failed) {
      // Engine retry budget exhausted on this replica — a health signal for
      // the breaker AND a lost copy for the request.
      if (!copies.empty()) {
        ++result.counters.copies_dropped;
      } else {
        failover(i, std::max(now, c.finish_s), static_cast<std::int64_t>(r));
      }
      breaker_failure(r, now);
      return;
    }
    // First copy to finish wins; any twin is cancelled wherever it is.
    for (const Copy& loser : copies) {
      replicas[static_cast<std::size_t>(loser.replica)]->cancel(i);
      ++result.counters.hedge_cancels;
    }
    copies.clear();
    breakers[r].on_success();
    fs.replica = static_cast<std::int64_t>(r);
    fs.hedge_won = winner_is_hedge;
    // Close the attribution chain: [mark, admit] is the wait for the
    // winning copy (split at the hedge-fire instant when the hedge won),
    // [admit, finish] is the replica's own ledger. A failed-over copy's
    // replica clock can trail the previous copy's fail time, leaving the
    // admit slightly before the frontier; the (bounded) overlap is folded
    // back into the failover phase so the sum stays exact and every phase
    // stays nonnegative.
    if (winner_is_hedge && st[i].hedge_fire_s >= st[i].mark_s) {
      fs.base.attr.add(obs::Phase::kHedgeWait,
                       st[i].hedge_fire_s - st[i].mark_s);
      fs.base.attr.add(obs::Phase::kAdmissionWait,
                       c.admit_s - st[i].hedge_fire_s);
    } else {
      const double wait = c.admit_s - st[i].mark_s;
      fs.base.attr.add(obs::Phase::kAdmissionWait, std::max(0.0, wait));
      if (wait < 0) fs.base.attr.add(obs::Phase::kFailover, wait);
    }
    st[i].mark_s = c.finish_s;
    fs.base.attr.merge(c.phases);
    fs.base.start_s = c.admit_s;
    fs.base.finish_s = c.finish_s;
    fs.base.tokens = std::move(c.tokens);
    fs.base.batch_size = c.occupancy;
    fs.base.retries = c.retries;
    fs.base.degraded = c.batch_lane;
    fs.base.stopped = c.stopped;
    fs.base.outcome = c.finish_s > fs.base.deadline_s
                          ? Outcome::kTimedOut
                          : (c.batch_lane ? Outcome::kDegraded : Outcome::kOk);
    ++result.counters.served;
    if (fs.base.outcome == Outcome::kTimedOut) ++result.counters.timeouts;
    if (c.batch_lane) ++result.counters.degraded;
    if (fs.hedge_won) ++result.counters.hedge_wins;
    terminalize(i);
    if (tracing) {
      auto& rec = obs::TraceRecorder::instance();
      const auto track = request_track(requests[i].id);
      if (c.admit_s > fs.base.arrival_s) {
        rec.complete_at(obs::kServerPid, track, to_us(fs.base.arrival_s),
                        to_us(c.admit_s - fs.base.arrival_s), "fleet",
                        "queued");
      }
      rec.complete_at(obs::kServerPid, track, to_us(c.admit_s),
                      to_us(c.finish_s - c.admit_s), "fleet",
                      "service r" + std::to_string(r));
    }
  }

  void run(std::vector<ReplicaFault> faults) {
    std::vector<std::size_t> order(requests.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return requests[a].arrival_s < requests[b].arrival_s;
                     });
    std::stable_sort(
        faults.begin(), faults.end(),
        [](const ReplicaFault& a, const ReplicaFault& b) {
          return a.at_s < b.at_s;
        });
    std::size_t ai = 0, fi = 0;
    double next_probe = fo.probe_interval_s;
    double now = 0;
    std::vector<Completion> comps;
    while (terminal_count < requests.size()) {
      // The globally earliest event; next_probe keeps it finite, so the loop
      // can never stall waiting on a time that never comes.
      double t = next_probe;
      if (ai < order.size()) t = std::min(t, requests[order[ai]].arrival_s);
      if (fi < faults.size()) t = std::min(t, faults[fi].at_s);
      if (!hedges.empty()) t = std::min(t, hedges.top().first);
      for (const auto& rep : replicas) t = std::min(t, rep->ready_s());
      now = std::max(now, t);
      while (fi < faults.size() && faults[fi].at_s <= now) {
        apply_fault(faults[fi++], now);
      }
      if (next_probe <= now) {
        probe_tick(now);
        do {
          next_probe += fo.probe_interval_s;
        } while (next_probe <= now);
      }
      while (ai < order.size() && requests[order[ai]].arrival_s <= now) {
        arrival(order[ai++], now);
      }
      while (!hedges.empty() && hedges.top().first <= now) {
        const std::size_t i = hedges.top().second;
        hedges.pop();
        fire_hedge(i, now);
      }
      for (std::size_t r = 0; r < replicas.size(); ++r) {
        if (replicas[r]->ready_s() > now) continue;
        comps.clear();
        replicas[r]->process_one(now, comps);
        for (auto& c : comps) handle_completion(r, std::move(c), now);
      }
    }
    for (const auto& rep : replicas) {
      result.counters.engine_faults += rep->engine_faults();
      result.counters.engine_retries += rep->engine_retries();
    }
  }
};

}  // namespace

namespace detail {

FleetResult run_fleet(const FleetSpec& spec, std::uint64_t seed,
                      const std::vector<core::TimedRequest>& requests,
                      std::vector<std::unique_ptr<ReplicaBase>> replicas,
                      std::vector<ReplicaFault> faults) {
  Run run(spec, seed, requests, std::move(replicas));
  run.run(std::move(faults));
  // The totality guarantee is load-bearing for the chaos gate: surface any
  // internal leak loudly rather than returning silently wrong accounting.
  if (const std::string leak = check_accounting(run.result); !leak.empty()) {
    throw std::logic_error("fleet accounting leak: " + leak);
  }
  return std::move(run.result);
}

}  // namespace detail

const char* shed_reason_name(ShedReason r) {
  switch (r) {
    case ShedReason::kNone: return "none";
    case ShedReason::kQueueFull: return "queue-full";
    case ShedReason::kAdmissionDeadline: return "admission-deadline";
    case ShedReason::kFailoverBudget: return "failover-budget";
    case ShedReason::kNoHealthyReplica: return "no-healthy-replica";
    case ShedReason::kArenaPages: return "arena-pages";
  }
  return "?";
}

FleetSummary summarize_fleet(const std::vector<FleetRequestStats>& stats) {
  std::vector<RequestStats> all, lat, bat;
  all.reserve(stats.size());
  for (const auto& s : stats) {
    all.push_back(s.base);
    (s.slo == SloClass::kBatch ? bat : lat).push_back(s.base);
  }
  FleetSummary out;
  out.all = core::summarize_serving(all);
  out.latency = core::summarize_serving(lat);
  out.batch = core::summarize_serving(bat);
  return out;
}

std::string check_accounting(const FleetResult& result) {
  const auto& c = result.counters;
  std::int64_t served = 0, timeouts = 0, degraded = 0, sheds = 0, failures = 0;
  std::int64_t hedged = 0, hedge_wins = 0;
  for (const auto& s : result.stats) {
    const auto& b = s.base;
    const std::string tag = "request " + std::to_string(b.id) + ": ";
    switch (b.outcome) {
      case Outcome::kOk:
      case Outcome::kDegraded:
      case Outcome::kTimedOut:
        ++served;
        if (b.outcome == Outcome::kTimedOut) ++timeouts;
        if (b.degraded) ++degraded;
        if (b.tokens.empty()) {
          return tag + "served with no tokens (lost or never terminal)";
        }
        if (s.reason != ShedReason::kNone) {
          return tag + "served but carries a shed reason";
        }
        if (b.finish_s > b.deadline_s && b.outcome != Outcome::kTimedOut) {
          return tag + "deadline miss without kTimedOut (accounting leak)";
        }
        if (b.outcome == Outcome::kTimedOut && b.finish_s <= b.deadline_s) {
          return tag + "kTimedOut inside its deadline";
        }
        break;
      case Outcome::kShed:
        ++sheds;
        if (s.reason == ShedReason::kNone ||
            s.reason == ShedReason::kFailoverBudget) {
          return tag + "shed without a typed shed reason";
        }
        break;
      case Outcome::kFailed:
        ++failures;
        if (s.reason != ShedReason::kFailoverBudget) {
          return tag + "failed without the failover-budget reason";
        }
        break;
    }
    if (s.hedged) ++hedged;
    if (s.hedge_won) ++hedge_wins;
  }
  const auto n = static_cast<std::int64_t>(result.stats.size());
  if (c.requests != n) return "counters.requests != stats.size()";
  if (served + sheds + failures != n) {
    return "not every request reached a terminal state (lost requests)";
  }
  if (c.served != served) return "counters.served mismatch";
  if (c.timeouts != timeouts) return "counters.timeouts mismatch";
  if (c.degraded != degraded) return "counters.degraded mismatch";
  if (c.sheds != sheds) return "counters.sheds mismatch";
  if (c.failures != failures) return "counters.failures mismatch";
  if (c.shed_queue_full + c.shed_deadline + c.shed_no_healthy +
          c.shed_arena_pages != sheds) {
    return "typed shed reasons do not sum to counters.sheds";
  }
  if (c.hedges != hedged) return "counters.hedges mismatch";
  if (c.hedge_wins != hedge_wins) return "counters.hedge_wins mismatch";
  if (c.hedge_wins > c.hedges) return "more hedge wins than hedges";
  // ISSUE 8: the phase ledger must account for every request's entire
  // end-to-end latency — served, shed, hedged, and failed-over alike.
  return obs::check_totality(attributed_requests(result));
}

std::vector<obs::AttributedRequest> attributed_requests(
    const FleetResult& result) {
  std::vector<obs::AttributedRequest> out;
  out.reserve(result.stats.size());
  for (const auto& s : result.stats) {
    obs::AttributedRequest a;
    a.id = s.base.id;
    a.arrival_s = s.base.arrival_s;
    a.finish_s = s.base.finish_s;
    a.violated = !s.base.served() || s.base.finish_s > s.base.deadline_s;
    a.phases = s.base.attr;
    out.push_back(a);
  }
  return out;
}

FleetRouter::FleetRouter(FleetSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed),
      watchdog_({{"latency", 0.05}, {"batch", 0.20}},
                obs::WindowedHistogramOptions{0.5, 10, {}}) {
  const auto errs = spec_.validate();
  if (!errs.empty()) throw core::ConfigException(errs.front());
}

FleetResult FleetRouter::run_trace(std::vector<core::TimedRequest> requests,
                                   std::vector<ReplicaFault> faults) {
  using Reason = core::BadRequestError::Reason;
  for (const auto& r : requests) {
    if (r.prompt.empty()) {
      throw core::BadRequestError(Reason::kEmptyPrompt, r.id,
                                  "fleet: empty prompt in request " +
                                      std::to_string(r.id));
    }
    if (r.new_tokens < 1) {
      throw core::BadRequestError(Reason::kNonPositiveNewTokens, r.id,
                                  "fleet: non-positive new_tokens in request " +
                                      std::to_string(r.id));
    }
    if (std::isnan(r.arrival_s) || r.arrival_s < 0) {
      throw core::BadRequestError(Reason::kBadArrival, r.id,
                                  "fleet: NaN/negative arrival in request " +
                                      std::to_string(r.id));
    }
    if (std::isnan(r.deadline_s) || r.deadline_s < r.arrival_s) {
      throw core::BadRequestError(
          Reason::kBadDeadline, r.id,
          "fleet: NaN or pre-arrival deadline in request " +
              std::to_string(r.id));
    }
  }
  std::vector<std::unique_ptr<ReplicaBase>> replicas;
  for (std::int64_t r = 0; r < spec_.options().replicas; ++r) {
    // Same engine seed everywhere: identical weights, identical greedy
    // tokens — the failover bit-identity invariant.
    replicas.push_back(std::make_unique<Replica>(spec_, r, seed_));
  }
  FleetResult result = detail::run_fleet(spec_, seed_, requests,
                                         std::move(replicas),
                                         std::move(faults));

  // Terminal requests feed the SLO watchdog and (when enabled) the flight
  // recorder in finish order — the virtual-time equivalent of observing
  // completions live.
  {
    std::vector<std::size_t> by_finish(result.stats.size());
    for (std::size_t i = 0; i < by_finish.size(); ++i) by_finish[i] = i;
    std::stable_sort(by_finish.begin(), by_finish.end(),
                     [&](std::size_t a, std::size_t b) {
                       return result.stats[a].base.finish_s <
                              result.stats[b].base.finish_s;
                     });
    const bool flight = obs::flight_enabled();
    for (std::size_t i : by_finish) {
      const auto& s = result.stats[i];
      const bool violated =
          !s.base.served() || s.base.finish_s > s.base.deadline_s;
      watchdog_.observe(s.base.finish_s, cls(s.slo), s.base.latency_s(),
                        violated);
      if (flight) {
        obs::FlightRecord rec;
        rec.id = s.base.id;
        rec.slo = static_cast<std::int64_t>(cls(s.slo));
        rec.replica = s.replica;
        rec.violated = violated;
        rec.served = s.base.served();
        rec.arrival_s = s.base.arrival_s;
        rec.finish_s = s.base.finish_s;
        rec.phases = s.base.attr;
        rec.spans = obs::spans_from_breakdown(s.base.attr, s.base.arrival_s);
        obs::FlightRecorder::instance().observe(std::move(rec));
      }
    }
  }

  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::instance();
    const auto& c = result.counters;
    reg.counter("fleet.dispatches").add(c.dispatches);
    reg.counter("fleet.served").add(c.served);
    reg.counter("fleet.sheds").add(c.sheds);
    reg.counter("fleet.failures").add(c.failures);
    reg.counter("fleet.failovers").add(c.failovers);
    reg.counter("fleet.hedges").add(c.hedges);
    reg.counter("fleet.hedge_wins").add(c.hedge_wins);
    reg.counter("fleet.probes").add(c.probes);
    reg.counter("fleet.breaker_opens").add(c.breaker_opens);
    reg.counter("fleet.crashes").add(c.crashes);
    auto& lat_h = reg.histogram("fleet.latency_s.latency");
    auto& bat_h = reg.histogram("fleet.latency_s.batch");
    for (const auto& s : result.stats) {
      if (!s.base.served()) continue;
      (s.slo == SloClass::kBatch ? bat_h : lat_h).record(s.base.latency_s());
    }
  }
  return result;
}

}  // namespace dsinfer::fleet
