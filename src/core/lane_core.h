// The lane machinery shared by the continuous batcher
// (core/continuous_batcher.h) and the fleet replica (fleet/replica.h): a
// primary RaggedDecoder lane, a lazily built INT8 half-capacity lane, one
// virtual clock, and the actions both run — admit one request, run one
// fused iteration, retry engine faults with exponential virtual backoff,
// fail a lane's live slots when retries run out, and charge every clock
// advance to every live slot's attribution ledger (so each ledger sums to
// its slot's residency by construction). Virtual mode prices actions with
// IterationCost, measured mode with a stopwatch split by split_measured().
// The two owners keep only their queue policy.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/inference_engine.h"
#include "core/iteration_cost.h"
#include "core/server.h"
#include "obs/attribution.h"

namespace dsinfer::core {

// Options of an engine's degraded twin: INT8 kernels, or INT8-streamed
// weights when the primary streams. Built with the same seed it has the same
// weights; the overload path and the fleet's batch lane serve on it.
EngineOptions degraded_engine_options(const EngineOptions& primary);

// Measured-mode split of one engine invocation's wall time `dt`: the comm,
// ZeRO-fetch and KV-spill wall time the hooks reported (`sub`), scaled down
// to fit when concurrent TP ranks over-count, and the rest as `compute`.
obs::PhaseBreakdown split_measured(double dt, const obs::PhaseBreakdown& sub,
                                   obs::Phase compute);

// A decoder plus per-slot links back to the owner's request table (valid
// while the slot is in use).
struct DecoderLane {
  DecoderLane(InferenceEngine& engine, std::int64_t slots,
              const SamplingOptions& sampling, std::uint64_t seed,
              bool degraded, double cost_factor);

  RaggedDecoder decoder;
  std::vector<std::size_t> req;          // owner's request index
  std::vector<std::int64_t> retries;     // engine retries absorbed
  std::vector<double> admit_s;           // service start (before retries)
  std::vector<std::int64_t> occ;         // live sequences after admission
  std::vector<obs::PhaseBreakdown> phases;  // attribution ledger
  bool degraded = false;
  double cost_factor = 1.0;  // VirtualServiceModel::degraded_factor if degraded
};

class LaneCore {
 public:
  // Called for each slot that reaches a terminal state, just before the
  // core retires it; `failed` when the retry budget ran out.
  using FinishFn =
      std::function<void(DecoderLane& lane, std::int64_t slot, bool failed)>;

  // How a priced iteration moves the clock: the batcher adds the parts as
  // one sum, the replica one at a time. The orders round differently; each
  // owner keeps its own so recorded timelines stay bit-identical.
  enum class StepClock { kOneSum, kPerPart };

  // `degraded_engine` is invoked once, by the first degraded_lane() call.
  // Engine faults draw `injector` (may be null) at `site`.
  LaneCore(InferenceEngine& primary,
           std::function<InferenceEngine&()> degraded_engine,
           const ServerOptions& opts, std::uint64_t seed,
           util::FaultInjector* injector, std::string site,
           StepClock step_clock, FinishFn on_finish);
  // The owner's callbacks hold the core's address.
  LaneCore(const LaneCore&) = delete;
  LaneCore& operator=(const LaneCore&) = delete;

  DecoderLane& primary() { return *primary_; }
  const DecoderLane& primary() const { return *primary_; }
  // Null until degraded_lane() first builds it.
  DecoderLane* degraded() { return degraded_.get(); }
  DecoderLane& degraded_lane();
  // {primary, degraded-or-null}, the order every sweep uses.
  std::array<DecoderLane*, 2> lanes() {
    return {primary_.get(), degraded_.get()};
  }

  const IterationCost& cost() const { return cost_; }
  double clock() const { return clock_; }
  std::int64_t active() const;
  std::int64_t engine_faults() const { return engine_faults_; }
  std::int64_t engine_retries() const { return engine_retries_; }

  // Optional trace hook: "engine fault" at each fault, "retry <n>" after
  // each backoff.
  std::function<void(const std::string& what)> on_fault;

  // Multiplies every later virtual price by `factor` while the clock is
  // before `until_s` (a fleet replica's straggle fault).
  void slow_down(double factor, double until_s) {
    slow_factor_ = factor;
    slow_until_ = until_s;
  }

  // Besides the priced actions, the clock moves only through these, and
  // charges the elapsed time as `p` to every live slot. advance_to() jumps
  // to `t` when later, exactly (not by adding the difference).
  void advance(double dt, obs::Phase p);
  void advance_to(double t, obs::Phase p);

  // Admits `rq` (the owner's request `req`) into `lane` under the retry
  // budget, prices its prefill, and finishes it if admit() already did.
  // Returns the slot, or -1 when the budget ran out (no slot was held).
  std::int64_t admit(DecoderLane& lane, std::size_t req, const TimedRequest& rq,
                     std::int64_t& tries);

  // One fused iteration over `lane` under the retry budget, priced, then
  // finishes every completed slot (every live slot, failed, when the budget
  // runs out). Returns its decode rows, or -1 when idle or failed.
  std::int64_t step(DecoderLane& lane);

 private:
  struct Attempt {
    std::int64_t tries = 0;
    double measured_s = 0;      // wall time of the successful attempt
    obs::PhaseBreakdown sub;    // its comm/zero/kv sub-phase wall time
  };
  bool with_retry(const std::function<void()>& invoke, Attempt& a);
  void charge(double dt, obs::Phase p);
  void charge(const obs::PhaseBreakdown& parts);
  void finish(DecoderLane& lane, std::int64_t slot, bool failed);
  double slowdown() const { return clock_ < slow_until_ ? slow_factor_ : 1.0; }

  const ServerOptions& opts_;
  IterationCost cost_;
  std::uint64_t seed_;
  util::FaultInjector* injector_;
  std::string site_;
  StepClock step_clock_;
  FinishFn on_finish_;
  std::function<InferenceEngine&()> degraded_engine_;
  std::unique_ptr<DecoderLane> primary_;
  std::unique_ptr<DecoderLane> degraded_;

  double clock_ = 0;
  double slow_factor_ = 1.0;
  double slow_until_ = 0;
  std::int64_t engine_faults_ = 0;
  std::int64_t engine_retries_ = 0;
};

}  // namespace dsinfer::core
