#include "core/iteration_cost.h"

#include <algorithm>

namespace dsinfer::core {

// The operand order of every expression below is load-bearing: the
// schedulers' virtual timelines (and BENCH_serving.json) are bit-exact
// functions of it.

IterationCost::IterationCost(const VirtualServiceModel& vs,
                             const EngineOptions& engine, std::int64_t layers)
    : vs_(vs),
      draft_factor_(RaggedDecoder::spec_draft_cost_factor(engine, layers)),
      spec_scale_(std::max(1.0, draft_factor_) /
                  RaggedDecoder::spec_step_tokens(engine)) {}

double IterationCost::admit_s(std::int64_t prefill_rows, double scale) const {
  return (vs_.prefill_s +
          vs_.prefill_token_s * static_cast<double>(prefill_rows)) *
         scale;
}

IterationCost::Step IterationCost::step(std::int64_t prefill_rows,
                                        std::int64_t decode_rows,
                                        double scale) const {
  const double prompt =
      vs_.prefill_token_s * static_cast<double>(prefill_rows) * scale;
  const double verify = decode_rows > 0 ? vs_.per_token_s * scale : 0.0;
  const double draft =
      decode_rows > 0 ? vs_.per_token_s * draft_factor_ * scale : 0.0;
  Step s;
  s.decode = verify;
  s.draft = std::max(0.0, draft - verify);
  const double fused = s.decode + s.draft;
  s.prefill = std::max(prompt, fused) - fused;
  s.span = std::max(prompt, std::max(verify, draft));
  return s;
}

double IterationCost::estimate_s(double fixed_s, std::int64_t prefill_tokens,
                                 std::int64_t new_tokens, double scale) const {
  return (fixed_s + vs_.prefill_token_s * static_cast<double>(prefill_tokens) +
          vs_.per_token_s * spec_scale_ * static_cast<double>(new_tokens)) *
         scale;
}

}  // namespace dsinfer::core
