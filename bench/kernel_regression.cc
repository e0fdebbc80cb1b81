// Kernel-bench regression harness for the SIMD micro-kernel layer.
//
// Times every vectorized kernel at Fig.-6-representative shapes (GPT-2.7B
// width, decode m<=4, batched decode m=8 and prompt chunks m=16..64) under
// scalar and AVX2 via the runtime override, plus AVX-512 for the
// linear_sbi and linear_sbi_split shapes (the only calls with an AVX-512
// body), and emits machine-readable BENCH_kernels.json (GFLOP/s + GB/s per
// kernel per ISA) at the repo root — the repo's bench trajectory entry. The
// ISAs of one case are timed interleaved (scalar, avx2, [avx512], repeated),
// so host load that comes and goes hits both sides of a ratio alike. The
// check mode takes each side's median of 3 rounds; the full mode records
// each side's fastest of 5, the estimator least moved by load from other
// processes, which only ever slows a round down.
// Emission is deterministic: one JSON array with a single ungated "meta"
// row for host/run metadata and stable-ordered, fixed-format result rows
// that hold their prior on-disk values, a whole case at a time, when the
// fresh timings are within noise — a no-change rerun is a byte-identical
// file.
//
// Modes:
//   kernel_regression               full sweep, verbose table
//   kernel_regression --check      quick sweep + regression gate: every SIMD
//                                  kernel must be no slower than scalar
//                                  within a generous noise margin, AVX2
//                                  linear_sbi must be >= 1.2x AVX2
//                                  linear_blocked at m16 and m64, and
//                                  AVX-512 linear_sbi >= 1.2x AVX2
//                                  linear_sbi at m8 and m16 (ctest label
//                                  `perf`); exit 1 on regression.
//                                  Writes no JSON.
//   kernel_regression --json PATH  override the output path.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "kernels/attention.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/kv_cache.h"
#include "kernels/quant.h"
#include "kernels/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace dsinfer;
using namespace dsinfer::kernels;

struct Entry {
  std::string kernel;
  std::string shape;
  std::string isa;
  double ms = 0.0;
  double gflops = 0.0;
  double gbps = 0.0;
};

struct Case {
  std::string kernel;
  std::string shape;
  double flops;  // per call
  double bytes;  // per call
  std::function<void()> run;
  bool has_avx512;  // the kernel runs an AVX-512 body under kAvx512
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One sample: the average call time over at least min_sample_ms.
double sample_ms(const std::function<void()>& fn, double min_sample_ms) {
  int iters = 0;
  const double t0 = now_ms();
  double t1 = t0;
  do {
    fn();
    ++iters;
    t1 = now_ms();
  } while (t1 - t0 < min_sample_ms);
  return (t1 - t0) / iters;
}

class Fixture {
 public:
  explicit Fixture(bool quick) : quick_(quick) {}

  void add(std::string kernel, std::string shape, double flops, double bytes,
           std::function<void()> run, bool has_avx512 = false) {
    cases_.push_back({std::move(kernel), std::move(shape), flops, bytes,
                      std::move(run), has_avx512});
  }

  // Adaptive-iteration averages per ISA, the ISAs of a case sampled in
  // turn. The check mode gates on the median of 3 rounds: robust against
  // scheduler noise on shared hosts, cheap enough for a ctest gate. The full
  // mode records the fastest of 5 rounds, so that a rerun on an unchanged
  // tree lands inside the JSON's hold band even when another process takes
  // the core for a round or two.
  std::vector<Entry> run_all() {
    std::vector<Entry> out;
    const double min_sample = quick_ ? 30.0 : 150.0;
    const int rounds = quick_ ? 3 : 5;
    for (const Case& c : cases_) {
      std::vector<simd::KernelIsa> isas{simd::KernelIsa::kScalar};
      if (simd::cpu_has_avx2()) isas.push_back(simd::KernelIsa::kAvx2);
      if (c.has_avx512 && simd::cpu_has_avx512()) {
        isas.push_back(simd::KernelIsa::kAvx512);
      }
      for (simd::KernelIsa isa : isas) {  // warmup / touch pages
        simd::IsaOverrideGuard guard(isa);
        c.run();
      }
      std::vector<std::vector<double>> samples(isas.size());
      for (int s = 0; s < rounds; ++s) {
        for (std::size_t k = 0; k < isas.size(); ++k) {
          simd::IsaOverrideGuard guard(isas[k]);
          samples[k].push_back(sample_ms(c.run, min_sample));
        }
      }
      for (std::size_t k = 0; k < isas.size(); ++k) {
        std::sort(samples[k].begin(), samples[k].end());
        Entry e;
        e.kernel = c.kernel;
        e.shape = c.shape;
        e.isa = simd::isa_name(isas[k]);
        e.ms = quick_ ? samples[k][rounds / 2] : samples[k].front();
        e.gflops = c.flops / (e.ms * 1e6);
        e.gbps = c.bytes / (e.ms * 1e6);
        std::printf("  %-18s %-24s %-7s %9.4f ms  %8.2f GFLOP/s  %7.2f GB/s\n",
                    e.kernel.c_str(), e.shape.c_str(), e.isa.c_str(), e.ms,
                    e.gflops, e.gbps);
        std::fflush(stdout);
        out.push_back(std::move(e));
      }
    }
    return out;
  }

 private:
  bool quick_;
  std::vector<Case> cases_;
};

// Prior result rows parsed back from an existing BENCH_kernels.json (our
// own emitter format, line-based — anything unparseable is simply treated
// as no prior).
std::vector<Entry> read_prior(const char* path) {
  std::vector<Entry> out;
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return out;
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    Entry e;
    char kernel[64], shape[64], isa[16];
    if (std::sscanf(line,
                    "  {\"mode\": \"result\", \"kernel\": \"%63[^\"]\", "
                    "\"shape\": \"%63[^\"]\", \"isa\": \"%15[^\"]\", "
                    "\"ms\": %lf, \"gflops\": %lf, \"gbps\": %lf",
                    kernel, shape, isa, &e.ms, &e.gflops, &e.gbps) == 6) {
      e.kernel = kernel;
      e.shape = shape;
      e.isa = isa;
      out.push_back(std::move(e));
    }
  }
  std::fclose(f);
  return out;
}

// Deterministic emission: one JSON array, stable row
// order (case insertion x ISA), stable key order, fixed float formatting.
// Host/run metadata lives in a single ungated "meta" row so trajectory
// gates never diff on thread counts or ISA availability. Result rows are
// rate-limited against the prior file, a case (kernel x shape) at a time:
// when every ISA row of the case has a prior row and its fresh timing lands
// within the noise band of that prior, the case's old rows are kept
// verbatim — so a no-change rebuild re-emits a byte-identical file and
// only genuine shifts (> 50% relative — real kernel regressions are 2x+)
// rewrite a case. A case is held or rewritten whole, so the ISA rows of one
// case always come from the same interleaved run and their ratios read
// true.
void write_json(const char* path, const std::vector<Entry>& entries) {
  const std::vector<Entry> prior = read_prior(path);
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "kernel_regression: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  std::fprintf(f,
               "  {\"mode\": \"meta\", \"bench\": \"kernel_regression\", "
               "\"avx2_available\": %s, \"avx512_available\": %s, "
               "\"threads\": %zu}%s\n",
               simd::cpu_has_avx2() ? "true" : "false",
               simd::cpu_has_avx512() ? "true" : "false",
               // parallel_for's fan-out, the calling thread included.
               std::max<std::size_t>(ThreadPool::global().size(), 1),
               entries.empty() ? "" : ",");
  auto prior_within_noise = [&](const Entry& e) -> const Entry* {
    for (const Entry& p : prior) {
      if (p.kernel == e.kernel && p.shape == e.shape && p.isa == e.isa &&
          p.ms > 0 && std::abs(e.ms - p.ms) / p.ms <= 0.50) {
        return &p;
      }
    }
    return nullptr;
  };
  std::size_t held = 0;
  for (std::size_t b = 0; b < entries.size();) {
    // The rows of one case are adjacent (case insertion x ISA).
    std::size_t e = b;
    bool hold = true;
    while (e < entries.size() && entries[e].kernel == entries[b].kernel &&
           entries[e].shape == entries[b].shape) {
      hold = hold && prior_within_noise(entries[e]) != nullptr;
      ++e;
    }
    for (std::size_t i = b; i < e; ++i) {
      const Entry* row = hold ? prior_within_noise(entries[i]) : &entries[i];
      std::fprintf(f,
                   "  {\"mode\": \"result\", \"kernel\": \"%s\", \"shape\": "
                   "\"%s\", \"isa\": \"%s\", \"ms\": %.6f, \"gflops\": %.3f, "
                   "\"gbps\": %.3f}%s\n",
                   row->kernel.c_str(), row->shape.c_str(), row->isa.c_str(),
                   row->ms, row->gflops, row->gbps,
                   i + 1 < entries.size() ? "," : "");
    }
    if (hold) held += e - b;
    b = e;
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows, %zu held at prior values within noise, "
              "whole cases only)\n",
              path, entries.size(), held);
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string json_path;
#if defined(DSINFER_REPO_ROOT)
  json_path = std::string(DSINFER_REPO_ROOT) + "/BENCH_kernels.json";
#else
  json_path = "BENCH_kernels.json";
#endif
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  // GPT-2.7B width (Fig. 6 middle model): hidden 2560, ffn 4x, 32 heads.
  const std::int64_t H = 2560;
  Rng rng(7);
  std::vector<float> x(static_cast<std::size_t>(64) * H);
  std::vector<float> w(static_cast<std::size_t>(3 * H) * H);
  std::vector<float> bias(static_cast<std::size_t>(3 * H));
  std::vector<float> y(static_cast<std::size_t>(64) * H);
  rng.fill_normal(x);
  rng.fill_normal(w, 0.0f, 0.02f);
  rng.fill_normal(bias);

  PackedWeight packed_sq({w.data(), static_cast<std::size_t>(H * H)}, H, H);
  PackedWeight packed_qkv(w, 3 * H, H);
  PackedWeight packed_small({w.data(), static_cast<std::size_t>(320 * H)}, 320,
                            H);
  QuantizedWeight quant_sq({w.data(), static_cast<std::size_t>(H * H)}, H, H);

  Fixture fx(check);

  auto add_linear = [&](const char* kernel, std::int64_t m, std::int64_t in,
                        std::int64_t out, std::function<void()> run,
                        bool has_avx512 = false) {
    char shape[64];
    std::snprintf(shape, sizeof(shape), "m%lld_in%lld_out%lld",
                  static_cast<long long>(m), static_cast<long long>(in),
                  static_cast<long long>(out));
    fx.add(kernel, shape, 2.0 * m * in * out,
           (static_cast<double>(m) * in + static_cast<double>(in) * out +
            static_cast<double>(m) * out) *
               4.0,
           std::move(run), has_avx512);
  };

  // Decode-shape GeMMs (acceptance: SBI >= 2x scalar at m<=4 on AVX2) and
  // the multi-row steps of batched decode and prefill chunks (m 8..64).
  // Every SBI shape, m == 1 included, runs the AVX-512 tile under kAvx512,
  // so each gets an avx512 row.
  for (std::int64_t m : {1, 4, 8, 16, 64}) {
    add_linear(
        "linear_sbi", m, H, H,
        [&, m] { linear_sbi(x, packed_sq, bias, y, m); }, true);
  }
  add_linear(
      "linear_sbi", 1, H, 3 * H,
      [&] { linear_sbi(x, packed_qkv, bias, y, 1); }, true);
  add_linear(
      "linear_sbi_split", 1, H, 320,
      [&] { linear_sbi_split(x, packed_small, bias, y, 1, 8); }, true);
  add_linear("linear_ref", 1, H, H,
             [&] { linear_ref(x, w, bias, y, 1, H, H); });
  for (std::int64_t m : {1, 16, 64}) {
    add_linear("linear_blocked", m, H, H,
               [&, m] { linear_blocked(x, w, bias, y, m, H, H); });
  }
  add_linear("linear_int8", 1, H, H,
             [&] { linear_int8(x, quant_sq, bias, y, 1); });

  // Attention scores/context product shape: q_len x head_dim x seq.
  const std::int64_t mm = 16, kk = 80, nn = 512;
  std::vector<float> mat_c(static_cast<std::size_t>(mm * nn));
  fx.add("matmul", "m16_k80_n512", 2.0 * mm * kk * nn,
         (static_cast<double>(mm) * kk + static_cast<double>(kk) * nn +
          static_cast<double>(mm) * nn) *
             4.0,
         [&] { matmul(x, w, mat_c, mm, kk, nn); });

  // Fused attention at decode: batch 1, 32 heads of 80, 512 cached tokens.
  const std::int64_t heads = 32, hd = 80, seq = 512;
  KVCache cache(1, heads, hd, seq);
  std::vector<float> kv(static_cast<std::size_t>(seq * heads * hd));
  rng.fill_normal(kv);
  cache.append({kv.data(), static_cast<std::size_t>((seq - 1) * heads * hd)},
               {kv.data(), static_cast<std::size_t>((seq - 1) * heads * hd)},
               seq - 1);
  std::vector<float> qrow(static_cast<std::size_t>(heads * hd));
  std::vector<float> orow(qrow.size());
  rng.fill_normal(qrow);
  cache.append(qrow, qrow, 1);
  fx.add("attention_fused", "b1_h32_hd80_seq512", 4.0 * heads * hd * seq,
         (2.0 * heads * seq * hd + 2.0 * heads * hd) * 4.0,
         [&] { attention_fused(qrow, cache, orow, 1, true); });

  // Fused elementwise at decode-ish token counts.
  const std::int64_t rows = 4;
  std::vector<float> ew(static_cast<std::size_t>(rows) * 4 * H);
  std::vector<float> ew_out(ew.size());
  rng.fill_normal(ew);
  std::vector<float> ln_g(static_cast<std::size_t>(H), 1.0f);
  std::vector<float> ln_b(static_cast<std::size_t>(H), 0.0f);
  fx.add("layernorm", "r4_c2560", 8.0 * rows * H, 8.0 * rows * H, [&] {
    layernorm({ew.data(), static_cast<std::size_t>(rows * H)}, ln_g, ln_b,
              ew_out, rows, H);
  });
  fx.add("bias_gelu", "r4_c10240", 15.0 * rows * 4 * H, 8.0 * rows * 4 * H,
         [&] { bias_gelu(ew, bias, ew_out, rows, 4 * H); });
  fx.add("bias_residual", "r4_c2560", 2.0 * rows * H, 12.0 * rows * H, [&] {
    bias_residual({ew.data(), static_cast<std::size_t>(rows * H)}, bias, x,
                  ew_out, rows, H);
  });
  std::vector<float> sm(static_cast<std::size_t>(32) * 512);
  rng.fill_normal(sm);
  fx.add("softmax_rows", "r32_c512", 4.0 * 32 * 512, 8.0 * 32 * 512,
         [&] { softmax_rows(sm, 32, 512); });

  std::printf("kernel_regression (%s mode, avx2 %savailable, avx512 "
              "%savailable)\n",
              check ? "check" : "full", simd::cpu_has_avx2() ? "" : "un",
              simd::cpu_has_avx512() ? "" : "un");
  std::vector<Entry> entries = fx.run_all();
  // Quick-sweep timings taken under test load must not overwrite the
  // tracked file.
  if (!check) write_json(json_path.c_str(), entries);

  if (!simd::cpu_has_avx2()) {
    std::printf("no AVX2 path on this host/build; regression gate "
                "skipped\n");
    return 0;
  }

  // Regression gate: pair each SIMD entry with its scalar one; SIMD must not
  // lose to scalar beyond a generous noise margin (real speedups are 2x-8x,
  // so 0.85x only trips on genuine regressions, not timer jitter).
  int failures = 0;
  std::printf("\n%-18s %-24s %-7s %10s\n", "kernel", "shape", "isa",
              "simd/scalar");
  for (const Entry& s : entries) {
    if (s.isa != "scalar") continue;
    for (const Entry& v : entries) {
      if (v.isa != "scalar" && v.kernel == s.kernel && v.shape == s.shape) {
        const double speedup = s.ms / v.ms;
        const bool ok = speedup >= 0.85;
        std::printf("%-18s %-24s %-7s %9.2fx%s\n", s.kernel.c_str(),
                    s.shape.c_str(), v.isa.c_str(), speedup,
                    ok ? "" : "  REGRESSION");
        if (!ok) ++failures;
      }
    }
  }

  // SBI gate: on AVX2 the small-batch kernel must beat the cache-blocked
  // one at the multi-row shapes it exists for, measured in the same run.
  // On a 2.1 GHz AVX2 Xeon the 6x16 register tile reads 3.3-3.8x; a 4x8
  // tile whose accumulators spilled to the stack read 0.85-0.94x.
  int sbi_failures = 0;
  std::printf("\n%-24s %16s\n", "shape", "sbi/blocked avx2");
  for (const char* shape : {"m16_in2560_out2560", "m64_in2560_out2560"}) {
    const Entry* sbi = nullptr;
    const Entry* blocked = nullptr;
    for (const Entry& e : entries) {
      if (e.isa != "avx2" || e.shape != shape) continue;
      if (e.kernel == "linear_sbi") sbi = &e;
      if (e.kernel == "linear_blocked") blocked = &e;
    }
    if (sbi == nullptr || blocked == nullptr) continue;
    const double ratio = blocked->ms / sbi->ms;
    const bool ok = ratio >= 1.2;
    std::printf("%-24s %15.2fx%s\n", shape, ratio,
                ok ? "" : "  BELOW 1.2x");
    if (!ok) ++sbi_failures;
  }
  // AVX-512 gate: the 8-row x 32-output tile must beat the AVX2 6 x 16 one
  // at the batched-decode and prefill-chunk shapes, measured in the same
  // run.
  int avx512_failures = 0;
  if (simd::cpu_has_avx512()) {
    std::printf("\n%-24s %20s\n", "shape", "sbi avx512/avx2");
    for (const char* shape : {"m8_in2560_out2560", "m16_in2560_out2560"}) {
      const Entry* wide = nullptr;
      const Entry* narrow = nullptr;
      for (const Entry& e : entries) {
        if (e.kernel != "linear_sbi" || e.shape != shape) continue;
        if (e.isa == "avx512") wide = &e;
        if (e.isa == "avx2") narrow = &e;
      }
      if (wide == nullptr || narrow == nullptr) continue;
      const double ratio = narrow->ms / wide->ms;
      const bool ok = ratio >= 1.2;
      std::printf("%-24s %19.2fx%s\n", shape, ratio,
                  ok ? "" : "  BELOW 1.2x");
      if (!ok) ++avx512_failures;
    }
  } else {
    std::printf("\nno AVX-512 path on this host/build; avx512/avx2 gate "
                "skipped\n");
  }
  if (check && failures > 0) {
    std::fprintf(stderr, "kernel_regression: %d SIMD kernel(s) slower than "
                         "scalar beyond noise\n", failures);
  }
  if (check && sbi_failures > 0) {
    std::fprintf(stderr, "kernel_regression: linear_sbi below 1.2x "
                         "linear_blocked (AVX2) at %d multi-row shape(s)\n",
                 sbi_failures);
  }
  if (check && avx512_failures > 0) {
    std::fprintf(stderr, "kernel_regression: AVX-512 linear_sbi below 1.2x "
                         "AVX2 linear_sbi at %d shape(s)\n",
                 avx512_failures);
  }
  return check && (failures > 0 || sbi_failures > 0 || avx512_failures > 0)
             ? 1
             : 0;
}
