// Per-layer replay of recorded step shapes.
//
// The engine's own layers are not instrumented, so the traced run measures
// the `kernels`, `parallel` and `comm` layers by replaying each recorded
// admit()/step() shape through their public entry points, on the engine's
// own weights: linear_sbi or linear_blocked (as the engine's policy
// selects), attention_fused_ragged, layernorm, bias_gelu, bias_residual,
// GptWeights::embed / lm_head and sample_token at full width; and
// DeviceGroup::run + tp_layer_forward_ragged and Communicator::all_reduce_sum
// at the engine's tensor-parallel degree, when that is above 1.
//
// FLOPs and bytes are computed from tensor sizes, not measured.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "core/inference_engine.h"
#include "serve.h"

namespace servebench {

struct ReplayResult {
  std::int64_t steps = 0, admits = 0;  // shapes replayed
  // Summed over replayed steps (admits excluded).
  double gemm_s = 0, attention_s = 0, elementwise_s = 0, lm_head_s = 0,
         embed_sample_s = 0, step_wall_s = 0;
  // GeMM calls over every replayed shape, split at m = 8 rows.
  double flops_le8 = 0, bytes_le8 = 0, time_le8 = 0;
  double flops_gt8 = 0, bytes_gt8 = 0, time_gt8 = 0;
  double attention_bytes = 0, attention_time = 0;
  // Per replayed step: wall time minus the replayed kernel (tp = 1) or
  // tensor-parallel (tp > 1) time of the same shape.
  std::vector<double> step_self_ms;
  // Tensor-parallel replay; all of it stays empty for an unsharded engine.
  std::vector<double> group_run_us;  // construct a group + run empty body
  std::vector<double> tp_layer_ms;   // rank 0, per layer call
  std::vector<double> allreduce_us;  // rank 0, per call
  double allreduce_bytes = 0, allreduce_s = 0;  // over every call
  double comm_step_s = 0;      // all-reduce time, summed over steps
  double comm_step_bytes = 0;  // 2 * layers * rows * hidden * 4, summed
};

ReplayResult replay(const dsinfer::core::InferenceEngine& eng,
                    const Params& p, const std::vector<Shape>& shapes,
                    Tracer& tr, const Clock& clk);

}  // namespace servebench
