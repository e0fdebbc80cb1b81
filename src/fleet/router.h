// FleetRouter (ISSUE 6 tentpole): the layer above one engine. N independent
// steppable replicas (fleet/replica.h) behind one router that owns
// dispatching (least-outstanding-work / power-of-two-choices /
// prefix-affinity), per-SLO-class lanes with bounded in-system queues
// (backpressure -> typed sheds instead of collapse), health probes feeding a
// per-replica circuit breaker (closed/open/half-open), failover that
// re-admits a crashed replica's in-flight requests on survivors under a
// bounded budget, and hedged requests for tail latency with first-wins
// cancellation.
//
// Everything runs on one fleet-wide virtual timeline: run_trace() is an
// event loop over arrivals, scheduled replica faults, probe ticks, hedge
// timers, and replica actions — always advancing the globally earliest
// event, so a whole chaos run (every latency, failover, and shed) is a pure
// function of (spec, trace, fault schedule, seed). The loop drives replicas
// through ReplicaBase (fleet/replica.h), so the DES twin (fleet/fleet_sim.h)
// runs this same loop over synthetic replicas.
//
// Totality guarantee (the chaos gate): every request in the trace reaches a
// terminal state — served (possibly degraded/late), typed-shed, or
// typed-failed. No hangs, no lost requests; run_trace throws std::logic_error
// if its own accounting ever disagrees.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/workload.h"
#include "fleet/fleet_spec.h"
#include "fleet/replica.h"
#include "obs/attribution.h"
#include "obs/slo_watchdog.h"

namespace dsinfer::fleet {

// Why a request left the system without full service — the typed shed/fail
// vocabulary (ISSUE 6 satellite: typed errors when budgets are exhausted).
enum class ShedReason {
  kNone,               // served
  kQueueFull,          // class queue limit hit at arrival (backpressure)
  kAdmissionDeadline,  // predicted or actual deadline miss before admission
  kFailoverBudget,     // crash/fault re-dispatch budget exhausted -> kFailed
  kNoHealthyReplica,   // every replica crashed
  kArenaPages,         // worst-case KV pages can never fit any replica's
                       // page pool (ISSUE 7 structural rejection)
};

const char* shed_reason_name(ShedReason r);

struct FleetRequestStats {
  core::RequestStats base;  // id, tokens, timing, outcome — server vocabulary
  core::SloClass slo = core::SloClass::kLatency;
  std::int64_t replica = -1;   // replica that served it (-1 = none)
  std::int64_t failovers = 0;  // re-dispatches this request absorbed
  bool hedged = false;         // a hedge copy was issued
  bool hedge_won = false;      // ... and the hedge finished first
  ShedReason reason = ShedReason::kNone;
};

struct FleetCounters {
  std::int64_t requests = 0, dispatches = 0;
  std::int64_t served = 0, degraded = 0, timeouts = 0, sheds = 0, failures = 0;
  std::int64_t shed_queue_full = 0, shed_deadline = 0, shed_no_healthy = 0;
  std::int64_t shed_arena_pages = 0;
  std::int64_t failovers = 0, copies_dropped = 0;
  std::int64_t hedges = 0, hedge_wins = 0, hedge_cancels = 0;
  std::int64_t probes = 0, probe_failures = 0;
  std::int64_t breaker_opens = 0, breaker_half_opens = 0, breaker_closes = 0;
  std::int64_t crashes = 0, stalls = 0, stragglers = 0;
  std::int64_t engine_faults = 0, engine_retries = 0;
};

struct FleetResult {
  std::vector<FleetRequestStats> stats;  // indexed like the input trace
  FleetCounters counters;
};

// Latency/goodput summaries per SLO class plus the whole fleet (reuses the
// serving-summary vocabulary so benches plot one schema).
struct FleetSummary {
  core::ServingSummary all, latency, batch;
};
FleetSummary summarize_fleet(const std::vector<FleetRequestStats>& stats);

// Cross-checks stats against counters: every request terminal, counter sums
// exact, zero deadline-miss-without-shed leaks (a served request past its
// deadline MUST be kTimedOut and counted), and — ISSUE 8 — phase-ledger
// totality: every request's attributed phase durations sum to its
// end-to-end latency within obs::kTotalityEps. Returns "" when clean, else
// a description of the first leak — the fleet_chaos_check gate.
std::string check_accounting(const FleetResult& result);

// Projects a fleet result into the obs attribution vocabulary (one entry
// per request; violated = shed/failed/deadline-missed) for check_totality,
// summarize_phases, and the bench's --attr rows.
std::vector<obs::AttributedRequest> attributed_requests(
    const FleetResult& result);

namespace detail {

// The fleet protocol's one event loop: arrivals, the fault timeline, probe
// ticks, hedge timers and replica actions over `replicas`, always advancing
// the globally earliest event. FleetRouter::run_trace runs it over engine
// Replicas, simulate_fleet (fleet/fleet_sim.h) over the DES twin's
// synthetic ones. `requests` must already be valid; throws std::logic_error
// if the result's accounting leaks.
FleetResult run_fleet(const FleetSpec& spec, std::uint64_t seed,
                      const std::vector<core::TimedRequest>& requests,
                      std::vector<std::unique_ptr<ReplicaBase>> replicas,
                      std::vector<ReplicaFault> faults);

}  // namespace detail

class FleetRouter {
 public:
  // Validates the spec (throws core::ConfigException on the first typed
  // error). Replicas are built per run_trace call; the router object is
  // reusable and cheap until then.
  explicit FleetRouter(FleetSpec spec, std::uint64_t seed = 0x5eed);

  // Replays `requests` through the fleet under the scheduled replica
  // `faults`. Requests are validated like InferenceServer::run_trace
  // (throws core::BadRequestError). Every replica shares the engine seed,
  // so greedy tokens are bit-identical no matter which replica serves a
  // request — the failover-correctness invariant tests assert.
  FleetResult run_trace(std::vector<core::TimedRequest> requests,
                        std::vector<ReplicaFault> faults = {});

  const FleetSpec& spec() const { return spec_; }

  // Live SLO watchdog (ISSUE 8): run_trace feeds every terminal request
  // (in finish order, on the fleet's virtual clock) into per-class sliding
  // windows; persistent across runs on the same router. Class 0 = latency
  // (5% error budget), class 1 = batch (20%).
  const obs::SloWatchdog& watchdog() const { return watchdog_; }
  obs::SloWatchdog& watchdog() { return watchdog_; }

 private:
  FleetSpec spec_;
  std::uint64_t seed_;
  obs::SloWatchdog watchdog_;
};

}  // namespace dsinfer::fleet
