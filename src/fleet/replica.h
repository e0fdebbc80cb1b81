// One fleet replica (ISSUE 6): an independent serving box — its own
// InferenceEngine (plus a lazily built INT8 twin for the batch lane), its
// own KV arenas via two RaggedDecoder lanes, its own virtual clock, and its
// own FaultInjector site ("fleet.r<id>") — made *steppable* so the
// FleetRouter can interleave N replicas, scheduled faults, probes, and
// hedge timers on one fleet-wide virtual timeline.
//
// The lanes are a core::LaneCore, the core the continuous batcher runs on
// too; the replica adds its router queues, cancel/drain and the straggle
// control, in an event-loop shape: process_one() performs exactly one
// scheduling action — admit one queued request, or run one decode iteration
// across the lanes — and advances the replica clock by its virtual cost.
// The router always advances the globally earliest replica, so replica
// timelines never run more than one action ahead of the fleet clock. The
// ReplicaBase it implements keeps the refundable load ledger behind
// outstanding_s() and the crash/stall state; the DES twin implements the
// same base over a synthetic lane model.
//
// Chaos surface: crash() freezes the replica forever (work is lost and must
// fail over), stall_until() freezes it temporarily (probes fail, work
// resumes), straggle() multiplies its virtual service costs (the slow-
// replica mode hedging exists for). All replicas share the engine seed, so
// greedy token streams are bit-identical across replicas — failover
// re-admission on a survivor reproduces exactly the tokens a fault-free run
// would have produced.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/lane_core.h"
#include "fleet/fleet_spec.h"
#include "obs/attribution.h"

namespace dsinfer::fleet {

inline constexpr double kNever = std::numeric_limits<double>::infinity();

// One terminal event a replica reports back to the router.
struct Completion {
  std::size_t ridx = 0;       // index into the router's request vector
  bool failed = false;        // engine retry budget exhausted (not a crash)
  bool batch_lane = false;    // served on the degraded INT8 lane
  double admit_s = 0;         // when the copy entered a slot
  double finish_s = 0;        // replica-clock completion time
  std::int64_t retries = 0;   // engine-fault retries this copy absorbed
  std::int64_t occupancy = 0; // live sequences at admission (batch_size)
  std::vector<std::int32_t> tokens;  // prompt + generated (never padded)
  bool stopped = false;
  // Phase attribution of [admit_s, finish_s] (ISSUE 8): every replica-clock
  // advance while this copy held a slot, charged by cause. Sums exactly to
  // finish_s - admit_s — the replica's share of the totality invariant.
  obs::PhaseBreakdown phases;
};

// The surface the fleet event loop (fleet/router.cc) drives: queues,
// cancellation, one scheduling action at a time, the chaos controls and the
// probes routing reads. Two implementations run under the same loop:
// Replica below, a real serving box, and the DES twin's synthetic replica
// (fleet/fleet_sim.cc). The base keeps what both share: the crash and stall
// state, and the refundable load ledger behind outstanding_s().
class ReplicaBase {
 public:
  ReplicaBase() = default;
  // Held by pointer; Replica's lane-core callbacks hold its address.
  ReplicaBase(const ReplicaBase&) = delete;
  ReplicaBase& operator=(const ReplicaBase&) = delete;
  virtual ~ReplicaBase() = default;

  // Queues a copy of request `ridx` for admission; the SLO class picks the
  // lane (batch -> INT8 half-capacity lane when enabled).
  virtual void enqueue(std::size_t ridx, const core::TimedRequest* rq) = 0;

  // Drops the copy of `ridx` (hedge lost / failover): erased from the lane
  // queue, or its slot retired mid-decode. Returns false if no copy exists.
  virtual bool cancel(std::size_t ridx) = 0;

  // Cancels everything outstanding (queued + in-slot) and returns the
  // affected request indices — the failover sweep when the breaker opens.
  virtual std::vector<std::size_t> drain() = 0;

  // Earliest virtual time this replica can perform its next action:
  // +inf when crashed or idle, max(clock, stall end) otherwise.
  double ready_s() const {
    if (crashed_ || !has_work()) return kNever;
    return std::max(clock(), stall_until_);
  }

  // Performs one scheduling action no earlier than `now` (admit one request,
  // else one decode iteration over the lanes) and appends any terminal
  // events to `out`. Precondition: ready_s() <= now, not crashed.
  virtual void process_one(double now, std::vector<Completion>& out) = 0;

  // ---- Chaos controls (the router applies the ReplicaFault timeline). ----
  void crash() { crashed_ = true; }
  void stall_until(double t) { stall_until_ = std::max(stall_until_, t); }
  virtual void straggle(double factor, double until_s) = 0;

  bool crashed() const { return crashed_; }
  // What a health probe at `now` observes: alive and not mid-stall.
  bool responsive(double now) const {
    return !crashed_ && now >= stall_until_;
  }

  // KV-page probes. Can this request's worst-case pages ever fit the pool?
  // A false is a structural rejection the router sheds as kArenaPages. Does
  // the KV prefix cache already hold a prefix of `rq`'s prompt (the
  // prefix-warm routing signal)?
  virtual bool fits_request(const core::TimedRequest& rq) const = 0;
  virtual bool holds_prefix(const core::TimedRequest& rq) const = 0;

  // Estimated queued + in-flight work, the router's load signal.
  double outstanding_s() const { return outstanding_s_; }
  virtual std::int64_t engine_faults() const = 0;
  virtual std::int64_t engine_retries() const = 0;

 protected:
  virtual double clock() const = 0;
  virtual bool has_work() const = 0;

  // The load ledger: each copy's estimate is booked at enqueue and refunded
  // when the copy leaves (finished, failed, cancelled or drained).
  void book(std::size_t ridx, double estimate_s) {
    ledger_[ridx] = estimate_s;
    outstanding_s_ += estimate_s;
  }
  void refund(std::size_t ridx) {
    const auto it = ledger_.find(ridx);
    if (it == ledger_.end()) return;
    outstanding_s_ = std::max(0.0, outstanding_s_ - it->second);
    ledger_.erase(it);
  }
  void refund_all() {
    ledger_.clear();
    outstanding_s_ = 0;
  }

 private:
  std::unordered_map<std::size_t, double> ledger_;
  double outstanding_s_ = 0;
  bool crashed_ = false;
  double stall_until_ = 0;
};

class Replica final : public ReplicaBase {
 public:
  Replica(const FleetSpec& spec, std::int64_t id, std::uint64_t seed);

  void enqueue(std::size_t ridx, const core::TimedRequest* rq) override;
  bool cancel(std::size_t ridx) override;
  std::vector<std::size_t> drain() override;
  void process_one(double now, std::vector<Completion>& out) override;
  void straggle(double factor, double until_s) override;

  // Primary-lane decoder; the batch lane's pool is at least as permissive
  // for any request that fits the primary. holds_prefix reads the actual
  // cache contents.
  bool fits_request(const core::TimedRequest& rq) const override;
  bool holds_prefix(const core::TimedRequest& rq) const override;

  std::int64_t engine_faults() const override { return core_.engine_faults(); }
  std::int64_t engine_retries() const override {
    return core_.engine_retries();
  }

 private:
  using Queue = std::deque<std::pair<std::size_t, const core::TimedRequest*>>;

  double clock() const override { return core_.clock(); }
  bool has_work() const override;
  core::DecoderLane& lane_for(const core::TimedRequest& rq);
  Queue& queue_of(const core::DecoderLane& lane) {
    return queues_[lane.degraded ? 1 : 0];
  }
  void admit_one(core::DecoderLane& lane, Queue& queue);

  const FleetSpec& spec_;
  std::string site_;  // injector site "fleet.r<id>"
  std::uint64_t seed_;
  core::InferenceEngine engine_;
  std::unique_ptr<core::InferenceEngine> degraded_engine_;
  core::LaneCore core_;
  Queue queues_[2];  // router queues of the primary and batch lanes
  std::vector<Completion> done_;  // terminal events of the current action
};

// The fleet's price of one request on `degraded` fidelity: prefill_s, the
// whole prompt and the speculation-adjusted decode tokens. No live
// prefix-cache discount, deliberately — the replica's ledger refunds the
// same value it charged, and cache contents change in between. Shared by
// the replica's load ledger, the router's admission check and the DES twin.
double request_estimate_s(const core::IterationCost& cost,
                          const core::TimedRequest& rq, bool degraded);

}  // namespace dsinfer::fleet
