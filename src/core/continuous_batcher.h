// Iteration-level (continuous) batching scheduler — the ISSUE 4 tentpole.
//
// Where the window batcher forms rigid same-length batches and holds every
// member until the batch max decodes, ContinuousBatcher runs a RaggedDecoder
// over a shared KV arena and makes scheduling decisions between decode
// iterations: arrivals are admitted into free slots the moment the virtual
// clock passes their arrival, sequences of different prompt lengths and
// budgets advance together, and each retires (freeing its slot) the instant
// it hits its stop token or token budget. No batch-wide max_new, no padding,
// no head-of-line blocking on shape.
//
// The lane machinery (admit, fused step, engine-fault retry with exponential
// virtual backoff, attribution charging, the degraded INT8 half-capacity
// lane) is core::LaneCore, shared with fleet::Replica. What this class adds
// is the single-server queue policy: strict-FIFO admission, admission-
// control and structural KV sheds, degrade-under-overload routing, tracing,
// and the decode-interval probe. Time follows the server convention —
// virtual arrivals/queueing, service priced by IterationCost when the
// VirtualServiceModel is enabled or measured with a stopwatch otherwise.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/inference_engine.h"
#include "core/server.h"

namespace dsinfer::core {

class ContinuousBatcher {
 public:
  // `degraded` lazily supplies the degraded-fidelity engine; it is invoked
  // at most once, the first time an arrival is routed to the overload path.
  // `estimate_s(prompt_tokens, new_tokens, degraded, prefix_hit_tokens)`
  // predicts service time for admission control (the server's EWMA/virtual
  // estimator) — prompt-aware since ISSUE 9, with `prefix_hit_tokens`
  // prompt tokens already resident in the target lane's prefix cache
  // discounted from the prefill term.
  ContinuousBatcher(
      InferenceEngine& primary, std::function<InferenceEngine&()> degraded,
      const ServerOptions& opts,
      std::function<double(std::int64_t, std::int64_t, bool, std::int64_t)>
          estimate_s,
      std::uint64_t seed);

  // Replays `requests` on the virtual clock. `order` holds indices into
  // `requests` sorted by arrival (FIFO admission follows it); requests are
  // pre-validated by the caller. Fills stats (indexed like `requests`) and
  // counters.
  void run(const std::vector<TimedRequest>& requests,
           const std::vector<std::size_t>& order,
           std::vector<RequestStats>& stats, ServingCounters& counters);

 private:
  InferenceEngine& primary_;
  std::function<InferenceEngine&()> degraded_factory_;
  const ServerOptions& opts_;
  std::function<double(std::int64_t, std::int64_t, bool, std::int64_t)>
      estimate_s_;
  std::uint64_t seed_;
};

}  // namespace dsinfer::core
