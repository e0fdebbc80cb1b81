// Fleet-layer configuration (ISSUE 6) — the ServeSpec family extended one
// level up: a FleetSpec wraps the per-replica core::ServeSpec and adds the
// knobs of the layer above one engine — replica count, routing policy,
// per-SLO-class lanes, hedging, failover, health probing, and the circuit
// breaker. Same contract as EngineSpec/ServeSpec: fluent setters build the
// configuration, validate() reports every violated constraint as a typed
// core::ConfigError, and FleetRouter's constructor throws ConfigException on
// the first one.
//
//   core::EngineSpec eng(model::tiny_gpt());
//   core::ServeSpec serve(eng);
//   serve.scheduler(core::Scheduler::kContinuous).virtual_service(vs);
//   fleet::FleetSpec spec(serve);
//   spec.replicas(3).policy(fleet::RoutePolicy::kPowerOfTwo)
//       .hedge(true, 20e-3).failover_budget(2);
//   fleet::FleetRouter router(spec, /*seed=*/7);
//
// The routing vocabulary (RoutePolicy, route_choose, Breaker) lives here;
// the router's event loop (fleet/router) drives it, for the functional fleet
// and the DES twin (fleet/fleet_sim) alike.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/engine_spec.h"
#include "util/rng.h"

namespace dsinfer::fleet {

// How the router picks a replica for a dispatch.
//  * kLeastOutstanding — argmin of estimated outstanding work (global view).
//  * kPowerOfTwo — two uniform draws, keep the less loaded (O(1) state, near
//    least-outstanding tail behaviour; the classic balls-into-bins result).
//  * kPrefixAffinity — hash of the prompt's leading tokens pins a home
//    replica (KV/prefix locality for hot system prompts), spilling to
//    power-of-two when the home is unhealthy or overloaded.
enum class RoutePolicy { kLeastOutstanding, kPowerOfTwo, kPrefixAffinity };

const char* route_policy_name(RoutePolicy p);

// Per-SLO-class router lane. `queue_limit` bounds in-system (dispatched but
// unfinished) requests of the class — the backpressure valve that turns
// overload into typed sheds instead of unbounded queues. Hedging applies to
// the latency class only.
struct SloLaneOptions {
  std::int64_t queue_limit = 64;
  bool hedging = false;
  double hedge_delay_s = 0.0;
};

struct FleetOptions {
  std::int64_t replicas = 1;
  RoutePolicy policy = RoutePolicy::kLeastOutstanding;
  SloLaneOptions latency;  // core::SloClass::kLatency lane
  SloLaneOptions batch;    // core::SloClass::kBatch lane (no hedging)
  // Re-dispatches a request may absorb (replica crash or engine-retry
  // exhaustion) before it fails with a typed budget error.
  std::int64_t failover_budget = 1;
  // Health probing / per-replica circuit breaker.
  double probe_interval_s = 5e-3;
  std::int64_t breaker_threshold = 2;  // consecutive failures -> open
  double breaker_cooldown_s = 20e-3;   // open -> half-open after this long
  // Prefix-affinity knobs: tokens hashed, and the spill factor (home replica
  // is skipped when its outstanding work exceeds spill x fleet mean).
  std::int64_t affinity_prefix = 8;
  double affinity_spill = 2.0;
  // Per-replica degraded INT8 half-capacity lane for the batch class.
  bool batch_lane = true;
  // Chaos hook: replica r's engine invocations draw from site
  // "fleet.r<r>" of this injector (transient faults, on top of the
  // scheduled ReplicaFault timeline).
  util::FaultInjector* injector = nullptr;
};

// One scheduled replica-level fault in a chaos run. Crash is terminal;
// stall freezes the replica for `duration_s`; straggle multiplies its
// virtual service costs by `factor` for `duration_s` (0 = until the end).
struct ReplicaFault {
  enum class Kind { kCrash, kStall, kStraggle };
  std::int64_t replica = 0;
  double at_s = 0;
  Kind kind = Kind::kCrash;
  double duration_s = 0;
  double factor = 1.0;
};

class FleetSpec {
 public:
  explicit FleetSpec(core::ServeSpec serve);

  FleetSpec& replicas(std::int64_t n);
  FleetSpec& policy(RoutePolicy p);
  FleetSpec& hedge(bool on, double delay_s = 0.0);
  FleetSpec& queue_limits(std::int64_t latency, std::int64_t batch);
  FleetSpec& failover_budget(std::int64_t n);
  FleetSpec& probe(double interval_s, std::int64_t breaker_threshold,
                   double cooldown_s);
  FleetSpec& affinity(std::int64_t prefix_tokens, double spill_factor);
  FleetSpec& batch_lane(bool on);
  FleetSpec& fault_injector(util::FaultInjector* inj);

  const core::ServeSpec& serve() const { return serve_; }
  const FleetOptions& options() const { return opts_; }

  // Per-replica ServeSpec errors first (a fleet is only as valid as its
  // replicas), then every violated fleet-level constraint, in stable order.
  std::vector<core::ConfigError> validate() const;

 private:
  core::ServeSpec serve_;
  FleetOptions opts_;
};

// ---- Routing vocabulary of the router's event loop.

// What the chooser sees of one replica. `dispatchable` means the breaker
// admits traffic (closed); `outstanding_s` is the replica's estimated queued
// + in-flight work in virtual seconds.
struct ReplicaLoadView {
  bool dispatchable = true;
  double outstanding_s = 0.0;
  // ISSUE 7: this replica's KV prefix cache already holds a prefix of the
  // request being routed — actual cache *contents*, not a hash bucket.
  // Prefix-affinity routing prefers a warm replica over the hash home.
  bool prefix_warm = false;
};

// FNV-1a over the leading `prefix_tokens` tokens — the prefix-affinity key.
std::uint64_t prefix_hash(std::span<const std::int32_t> prompt,
                          std::int64_t prefix_tokens);

// Picks a replica per `policy` among dispatchable entries of `views`,
// excluding `exclude` (pass -1 for none; used for hedges and failover).
// Returns -1 when no replica is dispatchable. Deterministic given the RNG
// state; every random draw flows through `rng`.
std::int64_t route_choose(RoutePolicy policy, const FleetOptions& opts,
                          std::span<const ReplicaLoadView> views,
                          std::uint64_t affinity_key, std::int64_t exclude,
                          Rng& rng);

// Per-replica circuit breaker: closed (traffic flows) -> open after
// `threshold` consecutive failures (no traffic) -> half-open after the
// cooldown (next probe decides) -> closed on success / reopen on failure.
struct Breaker {
  enum class State { kClosed, kOpen, kHalfOpen };

  State state = State::kClosed;
  std::int64_t consecutive_failures = 0;
  double opened_at_s = 0;
  // Lifetime transition counts (mirrored into FleetCounters).
  std::int64_t opens = 0, half_opens = 0, closes = 0;

  bool dispatchable() const { return state == State::kClosed; }

  // Returns true when this failure opened (or re-opened) the breaker.
  bool on_failure(double now_s, std::int64_t threshold);
  void on_success();
  // Open -> half-open once the cooldown elapses.
  void maybe_half_open(double now_s, double cooldown_s);
};

}  // namespace dsinfer::fleet
