// The virtual-clock price of serving work, in one place: the continuous
// batcher and fleet replica (through core::LaneCore), the window batcher's
// service estimate, the fleet router's admission check and the fleet_sim
// DES twin all charge through this class, and no other file multiplies the
// VirtualServiceModel constants (tests/cost_model_lint.cmake). DESIGN §6b
// states the formulas. `scale` is the caller's fidelity/slowdown multiplier
// (degraded_factor on the INT8 lane, times a replica's straggle factor).
#pragma once

#include <cstdint>

#include "core/inference_engine.h"
#include "core/server.h"

namespace dsinfer::core {

class IterationCost {
 public:
  // One fused prefill+decode+draft iteration, split the way attribution
  // charges it; `span` is their sum computed as one max (equal up to
  // rounding), for callers that charge the iteration as a single event.
  struct Step {
    double prefill = 0;  // prompt rows' excess over the fused decode lane
    double decode = 0;   // the decode (verify) rows
    double draft = 0;    // the draft lane's excess over the verify rows
    double span = 0;     // max(prompt rows, verify rows, draft lane)
  };

  IterationCost(const VirtualServiceModel& vs, const EngineOptions& engine,
                std::int64_t layers);

  const VirtualServiceModel& model() const { return vs_; }

  // Admission: the fixed prefill cost plus the prompt rows admit() ran (the
  // first chunk, or the whole suffix). Nothing overlaps an admit.
  double admit_s(std::int64_t prefill_rows, double scale) const;

  // One step(): a bounded prompt chunk rides the memory-bound decode rows'
  // idle compute and only its excess is charged; the draft lane runs
  // alongside the verify rows and only its excess is charged as draft.
  Step step(std::int64_t prefill_rows, std::int64_t decode_rows,
            double scale) const;

  // Predicted service time of a whole request, priced serially: `fixed_s`,
  // the prompt tokens to prefill, and `new_tokens` at the speculation-
  // adjusted rate (a verify step costs max(1, draft factor) decode
  // iterations and advances spec_step_tokens tokens).
  double estimate_s(double fixed_s, std::int64_t prefill_tokens,
                    std::int64_t new_tokens, double scale) const;

 private:
  VirtualServiceModel vs_;
  double draft_factor_;  // RaggedDecoder::spec_draft_cost_factor
  double spec_scale_;    // max(1, draft_factor_) / spec_step_tokens
};

}  // namespace dsinfer::core
