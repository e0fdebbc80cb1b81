// Shared pieces of the serving benchmark: workload parameters, the seeded
// request generator, span tracing, and percentile statistics.
//
// The benchmark drives the real CPU engine (core::InferenceEngine plus
// core::RaggedDecoder) on the wall clock from one thread that is both the
// client and the iteration scheduler. See main.cc for the phases of a run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

// Settings every workload shares.
constexpr std::uint64_t kModelSeed = 42;  // random init of the model weights
constexpr std::int64_t kSlots = 8;        // RaggedDecoder slots
constexpr double kZipfS = 1.0;            // system-prompt popularity exponent
constexpr double kWarmupS = 2.0;  // unmeasured closed loop before a window
constexpr std::int64_t kSetupReps = 3;  // setup_s is the median of these

// Confines the whole process (the engine's thread pool and TP rank threads
// inherit it) to one CPU of those it may use, the highest-numbered one, and
// returns that CPU. Must run before the first thread is created. On a shared
// virtual host a stolen vCPU stalls every join of a pool spread over all
// cores, so the spread of a multi-core run tracks the host, not the engine;
// on one core the engine's threads take turns and a stall costs only its own
// length. Throws std::runtime_error when the affinity cannot be read or set.
int pin_to_one_cpu();

// The settings that differ between workloads. run.py flattens
// servebench/workloads.json into `--set key=value` arguments; set_param()
// maps them onto these fields.
struct Params {
  // model: tiny_gpt(hidden, layers, heads), random init from kModelSeed.
  std::int64_t hidden = 0, layers = 0, heads = 0;
  // engine
  std::int64_t tensor_parallel = 1, kv_page_tokens = 0, kv_pages = 0,
               prefill_chunk_tokens = 0;
  bool prefix_cache = false;
  // traffic: `clients` closed-loop clients, each sending its next request
  // a think time after its previous one finished, uniform in
  // [0, think_ms_max] ms.
  std::int64_t clients = 0;
  double think_ms_max = 0;
  std::int64_t system_prompts = 0, system_prompt_tokens = 0;
  std::int64_t unique_tokens_min = 0, unique_tokens_max = 0;
  std::int64_t output_tokens_min = 0, output_tokens_max = 0;
  // SLO limits: TTFT, and a request's mean gap between its output tokens.
  double ttft_slo_ms = 0, itl_slo_ms = 0;
  // run shape: streams checked against generate(), shapes replayed
  std::int64_t check_samples = 0, replay_steps = 0, replay_admits = 0;
};

// Throws std::invalid_argument on an unknown key or a malformed value.
void set_param(Params& p, const std::string& key, const std::string& value);
// Throws std::invalid_argument when a required field is missing or out of
// range for the engine (e.g. prompt + output past the model's max_seq).
void validate(const Params& p, std::int64_t max_seq);

struct Request {
  std::int64_t id = 0;
  double due_s = 0;  // when the client sent it, from the window start
  std::int64_t client = -1;
  std::vector<std::int32_t> prompt;
  std::int64_t max_new = 0;
};

// Seeded request generator. The engine only ever sees the generated
// requests; the same seed gives the same requests.
class Workload {
 public:
  Workload(const Params& p, std::uint64_t seed, std::int64_t vocab);

  // Client `client`'s k-th request in request stream `stream`: a Zipf(kZipfS)
  // pick of the system prompts (if any; a client's first request takes
  // prompt `client` mod system_prompts instead) followed by
  // unique_tokens_min..max fresh tokens, asking for output_tokens_min..max
  // tokens. Both counts are uniform over their range and stratified over 8
  // equal sub-ranges: each client's run of 8 consecutive requests draws once
  // from each sub-range, and so do the k-th requests of 8 clients, so a
  // short window sees the whole range in every run. A client's first
  // request asks for only (client + 1) / clients of its drawn output count,
  // so clients that all start at once finish at spread-out times instead of
  // in lockstep. Depends only on the seed, the stream, the client and k,
  // never on timing.
  Request request(std::int64_t client, std::int64_t k,
                  std::uint64_t stream) const;
  // Seconds client `client` waits after its (k-1)-th request finished
  // before it sends its k-th; depends only on the seed, stream, client, k.
  double think_s(std::int64_t client, std::int64_t k,
                 std::uint64_t stream) const;

 private:
  std::vector<std::int32_t> fresh_tokens(std::uint64_t key,
                                         std::int64_t n) const;
  // The k-th stratified draw from [lo, hi] for `client`, u in [0, 1).
  std::int64_t stratified(std::int64_t lo, std::int64_t hi, std::int64_t client,
                          std::int64_t k, std::uint64_t stream,
                          std::uint64_t salt, double u) const;

  Params p_;
  std::uint64_t seed_;
  std::int64_t vocab_;
  std::vector<std::vector<std::int32_t>> system_prompts_;
  std::vector<double> zipf_cdf_;
};

// Monotonic clock in seconds from a fixed origin.
class Clock {
 public:
  Clock() : t0_(std::chrono::steady_clock::now()) {}
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

// In-memory span log. Spans carry a name, start and end (seconds on the
// owning run's clock), the index of their parent span (-1 for a root), and
// an id shared by every span of one request (-1 for spans that serve many
// requests, such as an engine step).
struct Span {
  const char* name = "";
  std::int64_t id = -1;
  double start = 0, end = 0;
  std::int32_t parent = -1;
};

class Tracer {
 public:
  explicit Tracer(std::size_t reserve) { spans_.reserve(reserve); }
  std::int32_t open(const char* name, std::int64_t id, std::int32_t parent,
                    double start) {
    spans_.push_back({name, id, start, start, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t span, double end) {
    spans_[static_cast<std::size_t>(span)].end = end;
  }
  std::int32_t add(const char* name, std::int64_t id, std::int32_t parent,
                   double start, double end) {
    spans_.push_back({name, id, start, end, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Per-name totals: span time, and self time (span time minus the part of
// it covered by its child spans).
struct SpanTotals {
  std::string name;
  std::int64_t count = 0;
  double total_s = 0, self_s = 0;
};
std::vector<SpanTotals> span_totals(const std::vector<Span>& spans);
// Writes one JSON object per span, one per line.
void write_spans(const std::vector<Span>& spans, const std::string& path);

// A percentile together with the sample count behind it. `beyond` is the
// number of samples above the percentile; fewer than 10 flags the value.
struct Pct {
  double value = 0;
  std::int64_t n = 0;
  std::int64_t beyond = 0;
  bool flagged() const { return beyond < 10; }
};
Pct percentile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

}  // namespace servebench
