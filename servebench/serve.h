// The client + iteration-scheduler loop over core::RaggedDecoder.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "core/inference_engine.h"

namespace servebench {

// One admit() or step() as the layers saw it: the rows it ran (arena slot
// and absolute position per row, slot-grouped) and how many of those rows
// were sampled. Recorded only in traced runs; the replay in replay.h runs
// the same shapes through each layer's public entry points.
struct Shape {
  bool admit = false;
  double wall_s = 0;
  std::vector<std::int32_t> slots, positions;
  std::int64_t sample_rows = 0;
};

struct RequestRecord {
  Request req;
  bool measured = false;  // sent inside the measured window, not the warm-up
  double admit_start = -1, admit_end = -1;
  std::vector<double> token_times;
  std::vector<std::int32_t> output;  // generated tokens, once retired
  bool done = false, failed = false;
  bool cut = false;  // still queued or running when the window ended
  bool completed() const { return done && !failed && !cut; }
};

// One serve() call: a warm-up phase, then the measured window, in one
// continuous closed loop. Times are seconds from the start of the loop; the
// samples below cover the measured window only.
struct Window {
  double start_s = 0;   // the measured window starts after the warm-up
  double window_s = 0;  // measured window length
  double warmup_wall_s = 0;  // when the first loop iteration of the window began
  std::vector<RequestRecord> reqs;  // both phases; see RequestRecord::measured
  std::vector<double> step_ms, admit_ms, queue_wait_ms, gen_lag_ms;
  std::vector<double> step_rows, step_prefill_rows;
  std::int64_t admit_attempts = 0, admit_refused = 0;
  std::int64_t tokens_in_window = 0;  // any request's tokens inside the window
  // Lifetime KV counters, as deltas over the window.
  std::int64_t prompt_tokens = 0, prefix_hit_tokens = 0, cow_splits = 0,
               evictions = 0;
  // Traced runs only: shapes and per-step KV readings.
  std::vector<Shape> shapes;
  std::vector<double> pages_in_use, reserved_over_used;
  double kv_bytes_peak = 0;

  struct Count {
    std::int64_t sent = 0, succeeded = 0, failed = 0, cut = 0;
  };
  Count count(bool measured) const;
};

// Serves kWarmupS + window_s seconds: `p.clients` closed-loop clients send
// requests from stream `stream` of `wl`, each sending its next request a
// think time (Workload::think_s) after its previous one finished. Requests
// are admitted in FIFO order while can_admit() holds; a request that never fits(), or whose
// admit()/step() throws, fails. At the end every request still queued or
// running is cut (retired unfinished; neither succeeded nor failed), so the
// call costs its time whatever the request lengths. With a tracer, spans
// are recorded inside the measured window around each call into the decoder,
// and shapes and KV readings are kept for the replay.
Window serve(dsinfer::core::RaggedDecoder& dec, const Workload& wl,
             const Params& p, double window_s,
             std::uint64_t stream, Tracer* tracer, const Clock& clk);

}  // namespace servebench
