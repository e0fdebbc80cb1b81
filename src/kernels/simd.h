// SIMD micro-kernel vocabulary: the register-level primitives every hot loop
// in src/kernels is written against.
//
// Each primitive is implemented twice — a portable scalar loop and an
// AVX2+FMA intrinsics version (compiled with per-function target attributes,
// so no special build flags are needed) — and dispatched per call on the
// active ISA. Detection is compile-time when the TU is built with an AVX2
// baseline (`__AVX2__`) and cpuid-based otherwise; a runtime override keeps
// the scalar path reachable on any host for A/B benchmarking (the
// `kernel_regression` bench and the SIMD parity tests both rely on it).
//
// Primitives take raw pointers + lengths rather than spans: they are inner
// loops, and every call covers a whole contiguous range so the per-call
// dispatch branch amortizes over the range.
#pragma once

#include <cstdint>

namespace dsinfer::kernels::simd {

// Which instruction set the vocabulary executes with.
//  kAuto   — best available (AVX2 when the CPU has avx2+fma, else scalar).
//  kScalar — force the portable fallback.
//  kAvx2   — request AVX2; silently degrades to scalar if unavailable so
//            that policy sweeps stay runnable on any host.
enum class KernelIsa : int { kAuto = 0, kScalar = 1, kAvx2 = 2 };

// True when the host CPU supports AVX2+FMA and the AVX2 path was compiled in
// (x86 with GCC/Clang and not DSINFER_SIMD_SCALAR_ONLY).
bool cpu_has_avx2();

// The ISA the next primitive call will execute with, after resolving the
// override against availability.
KernelIsa active_isa();

// Process-global override; kAuto restores hardware selection.
void set_isa_override(KernelIsa isa);
KernelIsa isa_override();

const char* isa_name(KernelIsa isa);

// RAII override for benchmarks/tests: forces an ISA, restores on scope exit.
class IsaOverrideGuard {
 public:
  explicit IsaOverrideGuard(KernelIsa isa) : prev_(isa_override()) {
    set_isa_override(isa);
  }
  ~IsaOverrideGuard() { set_isa_override(prev_); }
  IsaOverrideGuard(const IsaOverrideGuard&) = delete;
  IsaOverrideGuard& operator=(const IsaOverrideGuard&) = delete;

 private:
  KernelIsa prev_;
};

// ---- FP32 vocabulary ---------------------------------------------------

// sum_i a[i] * b[i]
float dot(const float* a, const float* b, std::int64_t n);

// y[i] += alpha * x[i]
void axpy(float alpha, const float* x, float* y, std::int64_t n);

// y[i] = alpha * x[i] + beta (x == y allowed)
void scale_add(const float* x, float alpha, float beta, float* y,
               std::int64_t n);

// y[i] = x[i] + bias[i]; bias may be nullptr (plain copy).
void add_bias(const float* x, const float* bias, float* y, std::int64_t n);

// y[i] = x[i] + residual[i] + bias[i]; bias may be nullptr.
void add_bias_residual(const float* x, const float* bias,
                       const float* residual, float* y, std::int64_t n);

// *sum += sum_i x[i]; *sumsq += sum_i x[i]^2 (double accumulation, the
// layernorm moment sweep).
void sum_sumsq(const float* x, std::int64_t n, double* sum, double* sumsq);

// y[i] = (x[i] - mu) * inv_std * gamma[i] + beta[i]; gamma/beta may each be
// nullptr (identity scale / zero shift). The layernorm epilogue.
void norm_affine(const float* x, const float* gamma, const float* beta,
                 float* y, std::int64_t n, float mu, float inv_std);

float reduce_max(const float* x, std::int64_t n);
float reduce_absmax(const float* x, std::int64_t n);

// x[i] = exp(x[i] - bias); returns the sum of the exponentials. The softmax
// middle pass (bias is the row max for stability).
float exp_sum_inplace(float* x, std::int64_t n, float bias);

// y[i] = gelu(x[i] + bias[i]) with the tanh approximation; bias may be
// nullptr. The AVX2 path evaluates tanh through a polynomial exp accurate to
// a few ULP, so fused/unfused parity tolerances down to ~1e-6 hold.
void gelu_bias(const float* x, const float* bias, float* y, std::int64_t n);

// ---- Register-blocked tile kernels (SBI-GeMM inner loops) --------------

// Max rows an fma_tile8 call may cover. fma_tile8 is the m == 1 decode
// kernel of linear_sbi (one row, its input index unrolled 4x into
// independent accumulator chains) and the inner loop of linear_sbi_split.
// At m >= 2 it runs fma_tile16's register tile on one panel, so its rows
// are the same sequential FMA chains; every multi-row linear_sbi step
// calls fma_tile16 directly.
inline constexpr std::int64_t kTileRows = 4;

// acc[r*8 + j] += sum_{i<n} x[r*ldx + i] * panel[i*8 + j]  for r < m.
//
// `panel` is an interleaved weight panel: 8 output lanes contiguous per
// input index (one full 32-byte cache-line half per load), exactly the
// PackedWeight layout — each step of the streaming pass is one 8-wide FMA
// per row. Requires 1 <= m <= kTileRows; acc is row-major [m, 8].
void fma_tile8(const float* x, std::int64_t ldx, std::int64_t m,
               const float* panel, std::int64_t n, float* acc);

// Max rows an fma_tile16 call may cover: 6 rows x 2 panels = 12 ymm
// accumulators on AVX2, plus 2 panel registers and 1 broadcast.
inline constexpr std::int64_t kWideTileRows = 6;

// acc[r*16 + q*8 + j] += sum_{i<n} x[r*ldx + i] * panel_q[i*8 + j]
//   for r < m, q < (panel1 ? 2 : 1), with panel_0 = panel0, panel_1 = panel1.
//
// Two interleaved panels (16 outputs) per pass: each input index costs 2
// panel loads and m broadcasts for 2m FMAs. Every output is one sequential
// FMA chain over i (no reassociation), so on AVX2 it equals a std::fmaf
// chain starting from acc, and a row's result does not depend on which
// other rows share the call. Requires 1 <= m <= kWideTileRows; acc is
// row-major [m, 16] (lanes 8..15 untouched when panel1 is nullptr).
void fma_tile16(const float* x, std::int64_t ldx, std::int64_t m,
                const float* panel0, const float* panel1, std::int64_t n,
                float* acc);

// ---- INT8 vocabulary ---------------------------------------------------

// sum_i a[i] * b[i] with i32 accumulation. Exact integer arithmetic: the
// AVX2 and scalar paths return bitwise-identical results.
std::int32_t dot_i8(const std::int8_t* a, const std::int8_t* b,
                    std::int64_t n);

// q[i] = clamp(rint(x[i] * inv_scale), -127, 127). Round-to-nearest-even in
// both paths (lrintf / cvtps_epi32 under the default rounding mode).
void quantize_i8(const float* x, float inv_scale, std::int8_t* q,
                 std::int64_t n);

}  // namespace dsinfer::kernels::simd
