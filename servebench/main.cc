// Wall-clock serving benchmark over the ragged engine.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out FILE] --set key=value ...
//
// (run.py builds this binary and supplies the --set parameters from
// workloads.json.) One run:
//   1. set-up, repeated kSetupReps times: EngineSpec -> InferenceEngine
//      + RaggedDecoder ready to admit; setup_s is the median;
//   2. a closed loop of kWarmupS seconds of warm-up, then --seconds of
//      measured window, untraced: every end-to-end metric;
//   3. with --trace 1 only: the untraced window of step 2 takes half of
//      --seconds, and a second closed loop on a fresh request stream
//      (warm-up, then the other half) records spans around every decoder
//      call; then a replay of the recorded shapes through the kernels /
//      parallel / comm layers (replay.h): every per-layer metric;
//   4. the output check, outside every timed window.
// The whole process runs on one CPU (bench.h, pin_to_one_cpu).
// The last stdout line is one JSON object: correct, attempted, failed and
// the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "core/engine_spec.h"
#include "core/inference_engine.h"
#include "model/model_config.h"
#include "replay.h"
#include "serve.h"

namespace sb = servebench;
namespace dc = dsinfer::core;

namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
  bool json = true;  // false: printed for reading only, not in the result
};

struct Args {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  sb::Params p;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_secs = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      have_secs = true;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--set") {
      const auto eq = v.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("--set k=v");
      sb::set_param(a.p, v.substr(0, eq), v.substr(eq + 1));
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty() || !have_seed || !have_secs || !have_trace ||
      !(a.seconds > 0)) {
    throw std::invalid_argument(
        "usage: servebench --workload W --seed N --seconds S --trace 0|1 "
        "[--trace-out FILE] --set key=value ...");
  }
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) { return sb::percentile(std::move(v), 0.5).value; }

std::string pct_note(const sb::Pct& p, const char* label) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "n=%lld, %lld beyond %s%s",
                static_cast<long long>(p.n), static_cast<long long>(p.beyond),
                label, p.flagged() ? "  FLAG: fewer than 10 samples beyond" : "");
  return buf;
}

void add_pct(std::vector<Metric>& out, const std::string& name,
             const std::vector<double>& v, double q, const char* label,
             const std::string& unit) {
  const sb::Pct p = sb::percentile(v, q);
  out.push_back({name, p.value, unit, pct_note(p, label)});
}

void print_phases(const char* run, const sb::Window& w) {
  for (const bool measured : {false, true}) {
    const auto c = w.count(measured);
    std::printf("  %-6s %-8s sent %5lld  succeeded %5lld  failed %3lld  cut at "
                "the end %3lld\n",
                run, measured ? "measured" : "warm-up",
                static_cast<long long>(c.sent),
                static_cast<long long>(c.succeeded),
                static_cast<long long>(c.failed), static_cast<long long>(c.cut));
  }
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("\n%s\n", title);
  for (const auto& m : ms) {
    std::printf("  %-34s %14.6g %-12s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str(),
                m.json ? "" : "  (printed only, not in the result)");
  }
}

std::vector<Metric> end_to_end(const sb::Params& p, const sb::Window& w,
                               double setup_s, double rss_mb) {
  // TTFT, gaps and the SLO come from every request sent inside the window;
  // a request cut at the window end is judged on the tokens it got (one cut
  // before its first token is left out of slo_attainment). Failed requests
  // miss the SLO. e2e comes from every request that completed inside the
  // window, sent there or in the warm-up: requests both sent and completed
  // inside it would keep only the early-sent ones, and none at all once a
  // request takes longer than the window.
  std::vector<double> ttft, itl, e2e;
  std::int64_t met = 0, unjudged = 0;
  for (const auto& r : w.reqs) {
    if (r.completed() && r.token_times.back() >= w.start_s) {
      e2e.push_back((r.token_times.back() - r.req.due_s) * 1e3);
    }
    if (!r.measured) continue;
    if (r.cut && r.token_times.empty()) {  // cut before its first token
      ++unjudged;
      continue;
    }
    if (r.failed || r.token_times.empty()) continue;  // an SLO miss
    const double first = (r.token_times.front() - r.req.due_s) * 1e3;
    ttft.push_back(first);
    double gaps = 0;
    for (std::size_t i = 1; i < r.token_times.size(); ++i) {
      const double g = (r.token_times[i] - r.token_times[i - 1]) * 1e3;
      itl.push_back(g);
      gaps += g;
    }
    const double mean_gap =
        r.token_times.size() > 1
            ? gaps / static_cast<double>(r.token_times.size() - 1)
            : 0.0;
    met += (first <= p.ttft_slo_ms && mean_gap <= p.itl_slo_ms) ? 1 : 0;
  }
  const auto count = w.count(/*measured=*/true);
  const double sent = static_cast<double>(std::max<std::int64_t>(1, count.sent));
  const double fail_ratio = static_cast<double>(count.failed) / sent;
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s",
               "median of " + std::to_string(sb::kSetupReps) + " set-ups"});
  // The result carries medians and means only. A run sees tens of TTFTs,
  // so ttft_p95 rests on a handful of samples; and the ITL tail is made of
  // the gaps that span an admit(), whose share of all gaps (6% to 15% by
  // workload) puts p95 or p99 on the edge between the plain-step and the
  // admit-spanning gaps in one workload or another. Both move by more than
  // the bounds from run to run, so they are printed here, with their sample
  // counts, and the means carry the tails into the result.
  add_pct(m, "ttft_p50_ms", ttft, 0.50, "p50", "ms");
  m.push_back({"ttft_mean_ms", sb::mean(ttft), "ms",
               "n=" + std::to_string(ttft.size())});
  add_pct(m, "ttft_p95_ms", ttft, 0.95, "p95", "ms");
  m.back().json = false;
  add_pct(m, "itl_p50_ms", itl, 0.50, "p50", "ms");
  m.push_back({"itl_mean_ms", sb::mean(itl), "ms",
               "n=" + std::to_string(itl.size())});
  add_pct(m, "itl_p99_ms", itl, 0.99, "p99", "ms");
  m.back().json = false;
  add_pct(m, "e2e_p50_ms", e2e, 0.50, "p50", "ms");
  m.back().note += ", requests completed in the window";
  char note[160];
  const std::int64_t judged = std::max<std::int64_t>(1, count.sent - unjudged);
  std::snprintf(note, sizeof note,
                "%lld of %lld sent met TTFT <= %g ms and mean ITL <= %g ms",
                static_cast<long long>(met), static_cast<long long>(judged),
                p.ttft_slo_ms, p.itl_slo_ms);
  m.push_back({"slo_attainment",
               static_cast<double>(met) / static_cast<double>(judged), "ratio",
               note});
  std::snprintf(note, sizeof note, "%lld tokens in the %g s window",
                static_cast<long long>(w.tokens_in_window), w.window_s);
  m.push_back({"output_tok_s",
               static_cast<double>(w.tokens_in_window) / w.window_s, "tok/s",
               note});
  std::snprintf(note, sizeof note, "fail_ratio %.6g (%lld of %lld failed or refused)",
                fail_ratio, static_cast<long long>(count.failed),
                static_cast<long long>(count.sent));
  m.push_back({"served_ratio", 1.0 - fail_ratio, "ratio", note});
  m.push_back({"peak_rss_mb", rss_mb, "MB", "getrusage ru_maxrss after the window"});
  return m;
}

std::vector<Metric> per_layer(const sb::Params& p, const sb::Window& w,
                              const sb::Window& untraced,
                              const sb::ReplayResult& r) {
  std::vector<Metric> m;
  const bool tp = p.tensor_parallel > 1;
  const double steps = static_cast<double>(std::max<std::int64_t>(1, r.steps));
  const char* computed = "computed from tensor sizes";
  // core
  add_pct(m, "core.admit_ms.p50", w.admit_ms, 0.50, "p50", "ms");
  add_pct(m, "core.admit_ms.p95", w.admit_ms, 0.95, "p95", "ms");
  add_pct(m, "core.step_ms.p50", w.step_ms, 0.50, "p50", "ms");
  add_pct(m, "core.step_ms.p99", w.step_ms, 0.99, "p99", "ms");
  m.push_back({"core.step_rows.mean", sb::mean(w.step_rows), "rows", ""});
  m.push_back({"core.step_prefill_rows.mean", sb::mean(w.step_prefill_rows),
               "rows", ""});
  add_pct(m, "core.queue_wait_ms.p50", w.queue_wait_ms, 0.50, "p50", "ms");
  add_pct(m, "core.queue_wait_ms.p95", w.queue_wait_ms, 0.95, "p95", "ms");
  m.push_back({"core.admit_refused_ratio",
               static_cast<double>(w.admit_refused) /
                   static_cast<double>(std::max<std::int64_t>(1, w.admit_attempts)),
               "ratio",
               std::to_string(w.admit_refused) + " of " +
                   std::to_string(w.admit_attempts) + " can_admit calls"});
  add_pct(m, "core.step_self_ms.p50", r.step_self_ms, 0.50, "p50", "ms");
  add_pct(m, "core.gen_lag_ms.p99", w.gen_lag_ms, 0.99, "p99", "ms");
  m.push_back({"core.warmup_s", w.warmup_wall_s, "s",
               "warm-up phase, until the first loop iteration of the window"});
  // kv
  const double req_k =
      static_cast<double>(std::max<std::int64_t>(1, w.count(true).sent)) / 1e3;
  m.push_back({"kv.prefix_hit_ratio",
               w.prompt_tokens > 0 ? static_cast<double>(w.prefix_hit_tokens) /
                                         static_cast<double>(w.prompt_tokens)
                                   : 0.0,
               "ratio",
               std::to_string(w.prefix_hit_tokens) + " of " +
                   std::to_string(w.prompt_tokens) + " prompt tokens"});
  m.push_back({"kv.pages_in_use.mean", sb::mean(w.pages_in_use), "pages", ""});
  m.push_back({"kv.reserved_over_used", sb::mean(w.reserved_over_used), "ratio",
               "committed_pages / pages_in_use, mean over steps"});
  m.push_back({"kv.cow_splits", static_cast<double>(w.cow_splits) / req_k,
               "count/1k-req", std::to_string(w.cow_splits) + " splits"});
  m.push_back({"kv.evictions", static_cast<double>(w.evictions) / req_k,
               "count/1k-req", std::to_string(w.evictions) + " evictions"});
  m.push_back({"kv.bytes_in_use.peak", w.kv_bytes_peak / 1048576.0, "MB",
               "all ranks"});
  // kernels
  const double kern = r.gemm_s + r.attention_s + r.elementwise_s + r.lm_head_s +
                      r.embed_sample_s;
  auto share = [&](double s) { return kern > 0 ? s / kern : 0.0; };
  const std::string over = std::to_string(r.steps) + " replayed steps, " +
                           std::to_string(r.admits) + " admits";
  m.push_back({"kernels.gemm_ms.per_step", r.gemm_s * 1e3 / steps, "ms", over});
  m.push_back({"kernels.gemm_gflops.m_le8",
               r.time_le8 > 0 ? r.flops_le8 / r.time_le8 / 1e9 : 0.0, "GFLOP/s",
               computed});
  m.push_back({"kernels.gemm_gbs.m_le8",
               r.time_le8 > 0 ? r.bytes_le8 / r.time_le8 / 1e9 : 0.0, "GB/s",
               computed});
  m.push_back({"kernels.gemm_gflops.m_gt8",
               r.time_gt8 > 0 ? r.flops_gt8 / r.time_gt8 / 1e9 : 0.0, "GFLOP/s",
               computed});
  m.push_back({"kernels.attention_ms.per_step", r.attention_s * 1e3 / steps,
               "ms", ""});
  m.push_back({"kernels.attention_gbs",
               r.attention_time > 0 ? r.attention_bytes / r.attention_time / 1e9
                                    : 0.0,
               "GB/s", computed});
  m.push_back({"kernels.elementwise_ms.per_step", r.elementwise_s * 1e3 / steps,
               "ms", "layernorm, bias_residual, bias_gelu"});
  m.push_back({"kernels.lm_head_ms.per_step", r.lm_head_s * 1e3 / steps, "ms", ""});
  m.push_back({"kernels.embed_sample_ms.per_step",
               r.embed_sample_s * 1e3 / steps, "ms", ""});
  m.push_back({"kernels.share.gemm", share(r.gemm_s), "ratio", "of replayed kernel time"});
  m.push_back({"kernels.share.attention", share(r.attention_s), "ratio", ""});
  m.push_back({"kernels.share.elementwise", share(r.elementwise_s), "ratio", ""});
  m.push_back({"kernels.share.lm_head", share(r.lm_head_s), "ratio", ""});
  // parallel / comm: the engine runs them only when sharded; an unsharded
  // workload reports 0 for each.
  const std::string na = tp ? "" : "not run at tensor_parallel 1";
  m.push_back({"parallel.group_run_us", median(r.group_run_us), "us",
               tp ? "median of 50 empty-body runs" : na});
  m.push_back({"parallel.tp_layer_ms", median(r.tp_layer_ms), "ms",
               tp ? "median per layer call, rank 0" : na});
  m.push_back({"comm.allreduce_us.p50", median(r.allreduce_us), "us",
               tp ? "rank 0, per call" : na});
  m.push_back({"comm.allreduce_gbs",
               r.allreduce_s > 0 ? r.allreduce_bytes / r.allreduce_s / 1e9 : 0.0,
               "GB/s", tp ? std::string("payload bytes, ") + computed : na});
  m.push_back({"comm.bytes_per_step", r.comm_step_bytes / steps, "B",
               tp ? "2 * layers * rows * hidden * 4" : na});
  m.push_back({"comm.share",
               r.step_wall_s > 0 ? r.comm_step_s / r.step_wall_s : 0.0, "ratio",
               tp ? "replayed all-reduce time / step wall time" : na});
  const double base = sb::percentile(untraced.step_ms, 0.5).value;
  m.push_back({"trace.overhead_ratio",
               base > 0 ? sb::percentile(w.step_ms, 0.5).value / base : 0.0,
               "ratio", "traced / untraced core.step_ms.p50"});
  return m;
}

void print_json(bool correct, const sb::Window& w, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(w.count(true).sent),
              static_cast<long long>(w.count(true).failed));
  const char* sep = "";
  for (const auto& m : ms) {
    if (!m.json) continue;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

dc::EngineSpec engine_spec(const sb::Params& p) {
  dc::EngineSpec spec(dsinfer::model::tiny_gpt(p.hidden, p.layers, p.heads));
  spec.max_batch(sb::kSlots)
      .max_seq(spec.model().max_seq)
      .tensor_parallel(p.tensor_parallel)
      .kv_page_tokens(p.kv_page_tokens)
      .kv_pages(p.kv_pages)
      .kv_prefix_cache(p.prefix_cache)
      .prefill_chunk_tokens(p.prefill_chunk_tokens);
  return spec;
}

// Compares the greedy streams of a seeded sample of requests (completed, or
// cut at the window end, by the tokens they got) against
// InferenceEngine::generate on a plain tp=1 strip engine with the same model
// seed, and every completed request's generated count against its ask.
bool check_outputs(const sb::Params& p, std::uint64_t seed,
                   const std::vector<const sb::Window*>& windows) {
  bool ok = true;
  std::int64_t completed = 0;
  for (const auto* w : windows) {
    for (const auto& r : w->reqs) {
      if (!r.completed()) continue;
      ++completed;
      if (static_cast<std::int64_t>(r.output.size()) != r.req.max_new) {
        std::printf("  MISMATCH request %lld: generated %zu tokens, asked %lld\n",
                    static_cast<long long>(r.req.id), r.output.size(),
                    static_cast<long long>(r.req.max_new));
        ok = false;
      }
    }
  }
  const sb::Window& m = *windows.front();
  std::vector<std::size_t> pick;
  for (std::size_t i = 0; i < m.reqs.size(); ++i) {
    if (!m.reqs[i].failed && !m.reqs[i].output.empty()) pick.push_back(i);
  }
  std::mt19937_64 rng(seed ^ 0xc4ecULL);
  std::shuffle(pick.begin(), pick.end(), rng);
  pick.resize(std::min<std::size_t>(pick.size(),
                                    static_cast<std::size_t>(p.check_samples)));
  if (pick.empty()) {
    std::printf("  no request produced a token to check\n");
    return false;
  }
  dc::EngineSpec ref_spec(dsinfer::model::tiny_gpt(p.hidden, p.layers, p.heads));
  ref_spec.max_batch(1).max_seq(ref_spec.model().max_seq);
  dc::InferenceEngine ref(ref_spec, sb::kModelSeed);
  std::set<std::int32_t> distinct;
  for (auto i : pick) {
    const auto& r = m.reqs[i];
    const auto n = static_cast<std::int64_t>(r.output.size());
    const auto res = ref.generate({r.req.prompt}, n);
    const std::vector<std::int32_t> want(
        res.tokens[0].begin() + static_cast<std::ptrdiff_t>(r.req.prompt.size()),
        res.tokens[0].end());
    distinct.insert(want.begin(), want.end());
    if (want != r.output) {
      std::printf("  MISMATCH request %lld: greedy stream differs from "
                  "InferenceEngine::generate\n",
                  static_cast<long long>(r.req.id));
      ok = false;
    }
  }
  std::printf("  %lld completed requests: generated == asked %s; %zu sampled "
              "streams vs generate(): %s\n",
              static_cast<long long>(completed), ok ? "ok" : "FAILED",
              pick.size(), ok ? "identical" : "MISMATCH");
  std::printf("  note: this check is weak while the random-init model emits "
              "near-constant greedy streams (%zu distinct tokens across the "
              "checked outputs)\n",
              distinct.size());
  return ok;
}

int run(const Args& a) {
  const sb::Params& p = a.p;
  const auto cfg = dsinfer::model::tiny_gpt(p.hidden, p.layers, p.heads);
  sb::validate(p, cfg.max_seq);
  const auto spec = engine_spec(p);
  if (auto errs = spec.validate(); !errs.empty()) {
    throw std::invalid_argument("engine spec: " + errs.front().message);
  }

  const int cpu = sb::pin_to_one_cpu();
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d cpu=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, cpu);
  std::printf("  model tiny_gpt(%lld, %lld, %lld) seed %llu; slots %lld, tp %lld, "
              "kv_page_tokens %lld, kv_pages %lld, prefix_cache %d, "
              "prefill_chunk_tokens %lld\n",
              static_cast<long long>(p.hidden), static_cast<long long>(p.layers),
              static_cast<long long>(p.heads),
              static_cast<unsigned long long>(sb::kModelSeed),
              static_cast<long long>(sb::kSlots),
              static_cast<long long>(p.tensor_parallel),
              static_cast<long long>(p.kv_page_tokens),
              static_cast<long long>(p.kv_pages), p.prefix_cache ? 1 : 0,
              static_cast<long long>(p.prefill_chunk_tokens));
  std::printf("  closed loop, %lld clients, think time 0-%g ms; SLO TTFT <= %g "
              "ms, mean ITL <= %g ms\n",
              static_cast<long long>(p.clients), p.think_ms_max, p.ttft_slo_ms,
              p.itl_slo_ms);

  sb::Clock clk;
  std::unique_ptr<dc::InferenceEngine> eng;
  std::unique_ptr<dc::RaggedDecoder> dec;
  std::vector<double> setups;
  for (std::int64_t i = 0; i < sb::kSetupReps; ++i) {
    dec.reset();
    eng.reset();
    const double t0 = clk.now();
    eng = std::make_unique<dc::InferenceEngine>(spec, sb::kModelSeed);
    dec = std::make_unique<dc::RaggedDecoder>(*eng, sb::kSlots);
    setups.push_back(clk.now() - t0);
  }
  const double setup_s = median(setups);

  sb::Workload wl(p, a.seed, cfg.vocab);
  // A traced run splits --seconds between its untraced and traced windows.
  const double window_s = a.trace ? a.seconds / 2 : a.seconds;
  const sb::Window meas =
      sb::serve(*dec, wl, p, window_s, /*stream=*/1, nullptr, clk);
  if (meas.count(/*measured=*/true).sent == 0) {
    throw std::runtime_error("no request was sent inside the measured window");
  }
  const double rss_mb = peak_rss_mb();
  const std::vector<Metric> e2e = end_to_end(p, meas, setup_s, rss_mb);

  std::vector<Metric> layers;
  sb::Window traced;
  if (a.trace) {
    sb::Tracer tr(1 << 16);
    // A fresh request stream: replaying stream 1 would hit the prefixes the
    // untraced run just published.
    traced = sb::serve(*dec, wl, p, window_s, /*stream=*/2, &tr, clk);
    const sb::ReplayResult rr = sb::replay(*eng, p, traced.shapes, tr, clk);
    layers = per_layer(p, traced, meas, rr);
    if (!a.trace_out.empty()) sb::write_spans(tr.spans(), a.trace_out);
    std::printf("\nspans (self = span time minus time covered by child spans)\n");
    std::printf("  %-26s %8s %12s %12s\n", "name", "count", "total_ms", "self_ms");
    std::map<std::string, double> layer_self;
    for (const auto& t : sb::span_totals(tr.spans())) {
      std::printf("  %-26s %8lld %12.3f %12.3f\n", t.name.c_str(),
                  static_cast<long long>(t.count), t.total_s * 1e3,
                  t.self_s * 1e3);
      layer_self[t.name.substr(0, t.name.find('.'))] += t.self_s;
    }
    std::printf("  self time by layer:");
    for (const auto& [layer, s] : layer_self) {
      std::printf(" %s %.3f ms;", layer.c_str(), s * 1e3);
    }
    std::printf("\n  %zu spans written to %s\n", tr.spans().size(),
                a.trace_out.empty() ? "(nowhere: no --trace-out)"
                                    : a.trace_out.c_str());
  }

  std::printf("\nrequests per phase\n");
  print_phases("run", meas);
  if (a.trace) print_phases("traced", traced);
  print_metrics("end-to-end (measured window, untraced)", e2e);
  if (a.trace) print_metrics("per-layer (traced window + replay)", layers);

  // The check runs outside every timed window, after the serving engine is
  // gone so its memory does not add to the reference engine's.
  dec.reset();
  eng.reset();
  std::printf("\noutput check\n");
  std::vector<const sb::Window*> windows = {&meas};
  if (a.trace) windows.push_back(&traced);
  const bool correct = check_outputs(p, a.seed, windows);
  std::printf("\n");
  std::fflush(stdout);
  print_json(correct, meas, a.trace ? layers : e2e);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
