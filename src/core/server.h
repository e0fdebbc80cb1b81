// A deterministic batching front-end over InferenceEngine — the production
// framing of the paper's introduction: latency-critical requests arrive on
// their own schedule, and the server trades queueing delay for batch size
// (throughput) under a configurable batching window.
//
// Time is virtual for arrivals/queueing and measured for service: the trace
// replay advances a virtual clock, so latency accounting is reproducible up
// to the machine's actual compute speed. Enabling VirtualServiceModel makes
// service time virtual too, so a whole trace replay (including chaos runs)
// is bit-deterministic.
//
// Resilience (ISSUE 1): requests carry deadlines; the batcher can shed load
// whose predicted completion would miss its deadline (admission control),
// retries engine faults with exponential virtual backoff, and under overload
// degrades gracefully — smaller batches on an INT8 engine — marking the
// affected responses. RequestStats and ServingCounters report timeouts,
// retries, sheds, and degradations so benches can plot goodput/SLA curves.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/inference_engine.h"
#include "obs/attribution.h"

namespace dsinfer::core {

// Typed rejection for malformed trace entries (satellite: hardened
// validation — every malformed field maps to a distinct reason).
class BadRequestError : public std::invalid_argument {
 public:
  enum class Reason {
    kEmptyPrompt,
    kNonPositiveNewTokens,
    kBadArrival,   // NaN or negative
    kBadDeadline,  // NaN, or earlier than the arrival
  };

  BadRequestError(Reason reason, std::int64_t id, const std::string& what)
      : std::invalid_argument(what), reason_(reason), id_(id) {}

  Reason reason() const { return reason_; }
  std::int64_t id() const { return id_; }

 private:
  Reason reason_;
  std::int64_t id_;
};

// Resilient-serving knobs. All time quantities are virtual seconds.
struct ResilienceOptions {
  // Shed a request (never run it) when its predicted finish, using the
  // current service-time estimate, already misses its deadline.
  bool admission_control = false;
  // Under overload (head-of-line queue delay > overload_queue_s), serve the
  // batch on the degraded engine (INT8 kernels, half-size batches) and mark
  // responses kDegraded.
  bool degrade_under_overload = false;
  double overload_queue_s = 0.0;
  // Engine-fault handling: retries per batch with exponential backoff
  // (retry_backoff_s * 2^attempt of virtual latency per retry).
  std::int64_t max_retries = 2;
  double retry_backoff_s = 1e-3;
  // Chaos hook: each engine invocation attempt draws should_fail() from
  // `engine_site`. No injector = no faults.
  util::FaultInjector* injector = nullptr;
  std::string engine_site = "server.engine";
};

// Deterministic stand-in for measured service time, priced by
// core::IterationCost (DESIGN §6b states the formulas). Makes whole-trace
// replay (latency fields included) bit-reproducible, which chaos tests and
// the resilience sweep rely on.
struct VirtualServiceModel {
  bool enabled = false;
  double base_s = 0.01;
  double per_token_s = 1e-3;
  double degraded_factor = 0.5;  // INT8/small-batch path speedup
  // Continuous scheduler: virtual cost of one prefill (admission). Priced as
  // roughly one decode iteration, not base_s — base_s models the per-
  // invocation overhead of standing a window batch up, which the always-hot
  // continuous engine does not pay per request.
  double prefill_s = 1e-3;
  // Per-prompt-token prefill cost; 0 prices prefill independent of prompt
  // length. Admission estimates charge it serially, fused iterations only
  // for the chunk's excess over the decode rows.
  double prefill_token_s = 0.0;
};

// Which batch-formation policy run_trace uses (ISSUE 4).
//  * kWindow — classic head-of-line window batching: same-prompt-length
//    requests group behind the head, the whole batch decodes to the batch
//    max and members are truncated to their ask.
//  * kContinuous — iteration-level scheduling over a shared KV arena:
//    arrivals are admitted between decode steps, sequences of any prompt
//    length coexist, and each retires the moment it hits its budget or stop
//    token (RaggedDecoder + ContinuousBatcher).
enum class Scheduler { kWindow, kContinuous };

struct ServerOptions {
  EngineOptions engine;
  Scheduler scheduler = Scheduler::kWindow;
  // kWindow: requests per engine invocation. kContinuous: concurrent KV
  // arena slots. Same knob so the two schedulers compare at equal resources.
  std::int64_t max_batch = 8;
  double batch_window_s = 0.0;  // kWindow: wait this long (virtual) to fill
  // Applied to every request (notably stop_token for early termination).
  SamplingOptions sampling;
  ResilienceOptions resilience;
  VirtualServiceModel virtual_service;
  // Bench/diagnostic hook (ISSUE 9): when set, the continuous batcher
  // appends the clock interval between consecutive decode-bearing
  // iterations of the primary lane. A monolithic long-prompt admit shows up
  // as one giant interval (the decode-tail stall chunked prefill removes);
  // serving_latency gates its p99. Not part of validation; ignored by the
  // window scheduler.
  std::vector<double>* decode_interval_sink = nullptr;
};

inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

// Per-tenant service class (ISSUE 6, fleet layer). Latency-sensitive
// requests ride the full-fidelity lane (and are eligible for hedging at the
// fleet router); batch requests ride the degraded INT8 half-capacity lane —
// the same lane the overload path falls back to — trading fidelity and tail
// latency for capacity.
enum class SloClass { kLatency, kBatch };

struct TimedRequest {
  std::int64_t id = 0;
  std::vector<std::int32_t> prompt;
  std::int64_t new_tokens = 1;
  double arrival_s = 0;           // virtual arrival time
  double deadline_s = kNoDeadline;  // absolute virtual SLA bound on finish
  SloClass slo = SloClass::kLatency;
  std::int64_t tenant = 0;  // logical user/tenant id (routing affinity key)
};

struct RequestStats {
  enum class Outcome {
    kOk,        // served at full fidelity, deadline met (or none)
    kDegraded,  // served on the degraded path, deadline met (or none)
    kTimedOut,  // served, but finished past its deadline
    kShed,      // rejected by admission control; never ran
    kFailed,    // engine faults exhausted the retry budget
  };

  std::int64_t id = 0;
  // Prompt + generated tokens. Exactly prompt+new_tokens when the sequence
  // ran its full budget; shorter (truncated at the stop token, inclusive)
  // when it stopped early — never zero-padded (ISSUE 4 satellite).
  std::vector<std::int32_t> tokens;
  double arrival_s = 0;
  double start_s = 0;   // when its batch began service
  double finish_s = 0;  // when its batch completed
  double deadline_s = kNoDeadline;
  std::int64_t batch_size = 0;
  Outcome outcome = Outcome::kOk;
  // Human-readable rejection detail for kShed outcomes (ISSUE 7): the page
  // arithmetic behind a structural KV shed ("kv pages: need N of M"), empty
  // for deadline sheds and served requests.
  std::string shed_reason;
  std::int64_t retries = 0;  // engine-fault retries its batch absorbed
  bool degraded = false;     // served on the degraded path
  bool stopped = false;      // emitted the stop token before its budget
  // Tail-latency attribution ledger (ISSUE 8): phase durations summing to
  // latency_s() within obs::kTotalityEps on both schedulers (and, through
  // FleetRequestStats, on the fleet path).
  obs::PhaseBreakdown attr;

  double queue_delay_s() const { return start_s - arrival_s; }
  double latency_s() const { return finish_s - arrival_s; }
  bool deadline_met() const { return finish_s <= deadline_s; }
  bool served() const {
    return outcome != Outcome::kShed && outcome != Outcome::kFailed;
  }
};

// Aggregate chaos/overload accounting for one run_trace call.
struct ServingCounters {
  std::int64_t served = 0;         // requests that produced tokens
  std::int64_t timeouts = 0;       // served but past deadline
  std::int64_t sheds = 0;          // rejected by admission control
  std::int64_t degradations = 0;   // served on the degraded path
  std::int64_t failures = 0;       // retry budget exhausted
  std::int64_t engine_faults = 0;  // injected faults observed
  std::int64_t retries = 0;        // engine retries performed
};

class ServeSpec;  // core/engine_spec.h — the validated configuration API
class IterationCost;  // core/iteration_cost.h — the virtual-clock prices

class InferenceServer {
 public:
  // Primary: build the configuration through core::ServeSpec (fluent
  // setters + typed validate()). Throws ConfigException if validation fails
  // — engine-level violations surface first (from the engine's own
  // construction), then server-level ones.
  explicit InferenceServer(const ServeSpec& spec, std::uint64_t seed = 0x5eed);

  // Deprecated shim: prefer InferenceServer(ServeSpec). One-line forward
  // through ServeSpec::from_options — all validation lives on the primary
  // constructor (ISSUE 10 retired the shim's duplicated checks).
  InferenceServer(const model::DenseModelConfig& cfg, ServerOptions opts,
                  std::uint64_t seed = 0x5eed);

  // Replays a request trace through the batcher. Requests are served FIFO;
  // a batch groups up-to-max_batch queued requests with the same prompt
  // length whose arrivals fall within the batching window of the head
  // request. Greedy decoding. Results are returned in input order.
  std::vector<RequestStats> run_trace(std::vector<TimedRequest> requests);

  InferenceEngine& engine() { return engine_; }
  // Counters from the most recent run_trace (reset at each call).
  const ServingCounters& counters() const { return counters_; }

  // Predicted service time for a request: base_s, the prompt past the
  // `prefix_hit_tokens` already resident in the prefix cache, and the new
  // tokens at the speculation-adjusted rate (IterationCost::estimate_s).
  // Measured mode blends per-term EWMAs instead; they observe sped-up
  // speculative steps directly. Public so tests can assert the scaling.
  // (The decode-only two-argument form is retired — pricing that ignores
  // the prompt admits long prompts into certain deadline misses;
  // `tests/deprecation_lint.cmake` keeps it dead.)
  double estimate_service_s(std::int64_t prompt_tokens,
                            std::int64_t new_tokens, bool degraded,
                            std::int64_t prefix_hit_tokens) const;

 private:
  // Lazily built INT8 twin of the primary engine (same seed => same
  // weights); the graceful-degradation path serves on it.
  InferenceEngine& degraded_engine();
  // The virtual-service prices of this server's configuration.
  IterationCost cost() const;
  // Folds one measured batch invocation into the EWMA estimator.
  void observe_service(double base_s, double step_s,
                       double prompt_token_s);

  std::vector<RequestStats> run_window(
      const std::vector<TimedRequest>& requests,
      const std::vector<std::size_t>& order);
  std::vector<RequestStats> run_continuous(
      const std::vector<TimedRequest>& requests,
      const std::vector<std::size_t>& order);

  model::DenseModelConfig cfg_;
  ServerOptions opts_;
  std::uint64_t seed_;
  InferenceEngine engine_;
  std::unique_ptr<InferenceEngine> degraded_;
  ServingCounters counters_;
  // Measured-mode service estimator: fixed cost per invocation plus cost per
  // decode step, each tracked as its own EWMA (0 until first observation).
  // ISSUE 9 adds a per-prompt-token EWMA so long prompts price their
  // prefill; it leans conservative (the base EWMA already absorbs one
  // observed prompt's prefill), which is the safe direction for admission.
  double ewma_base_s_ = 0;
  double ewma_per_token_s_ = 0;
  double ewma_prefill_token_s_ = 0;
};

}  // namespace dsinfer::core
