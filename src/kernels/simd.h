// SIMD micro-kernel vocabulary: the register-level primitives every hot loop
// in src/kernels is written against.
//
// Each primitive has a portable scalar loop and an AVX2+FMA intrinsics
// version; the SBI-GeMM tile (fma_tile32) also has an AVX-512 body. Every
// SIMD body is compiled with per-function target attributes, so no special
// build flags are needed, and dispatched per call on the active ISA.
// Detection is compile-time when the TU is built with that baseline
// (`__AVX2__`, `__AVX512F__`) and cpuid-based otherwise; a runtime override
// keeps every path reachable on any host that supports it for A/B
// benchmarking (the `kernel_regression` bench and the SIMD parity tests
// both rely on it).
//
// Primitives take raw pointers + lengths rather than spans: they are inner
// loops, and every call covers a whole contiguous range so the per-call
// dispatch branch amortizes over the range.
#pragma once

#include <cstdint>

namespace dsinfer::kernels::simd {

// Which instruction set the vocabulary executes with.
//  kAuto   — best available: AVX-512 when the CPU and OS support avx512f,
//            else AVX2 when the CPU has avx2+fma, else scalar.
//  kScalar — force the portable fallback.
//  kAvx2   — request AVX2 (the 256-bit bodies, also on an AVX-512 host);
//            silently degrades to scalar if unavailable so that policy
//            sweeps stay runnable on any host.
//  kAvx512 — request the AVX-512 tile kernel; every other primitive runs
//            its AVX2 body. Degrades to AVX2, then scalar, if unavailable.
enum class KernelIsa : int { kAuto = 0, kScalar = 1, kAvx2 = 2, kAvx512 = 3 };

// True when the host CPU supports AVX2+FMA and the AVX2 path was compiled in
// (x86 with GCC/Clang and not DSINFER_SIMD_SCALAR_ONLY).
bool cpu_has_avx2();

// True when cpu_has_avx2() holds and the CPU and OS also support avx512f
// (the OS saves the zmm and mask registers).
bool cpu_has_avx512();

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

// ---- Register-blocked tile kernel (SBI-GeMM inner loop) ---------------
//
// The tile reads PackedWeight panels: 16 output lanes contiguous per input
// index, so one input index of a panel is one 64-byte cache line (one zmm
// load on AVX-512, two ymm halves on AVX2).

// acc[r*32 + q*16 + j] += sum_{i<n} x[r*ldx + i] * panel_q[i*16 + j]
//   for r < m, q < (panel1 ? 2 : 1), with panel_0 = panel0, panel_1 = panel1.
//
// Requires m >= 1; acc is row-major [m, 32] (lanes 16..31 untouched when
// panel1 is nullptr). On the SIMD paths every output is one sequential FMA
// chain over i starting from acc, so it equals a std::fmaf chain whatever
// the ISA, m or the other rows of the call: m == 1 decode gives the same
// bits as that row inside a batch. The bodies cover the rows in passes, the
// later passes re-reading the panels from cache, and prefetch the panel
// lines ahead of the first. AVX-512: passes of up to 8 rows over both
// panels at once (16 zmm accumulators; per input index 2 panel loads and up
// to 8 broadcasts for 16 FMAs), so decode at m <= 8 streams each pair of
// panels once. AVX2: passes of up to 6 rows (12 ymm accumulators over the
// two halves of a panel line) that alternate between the two panels every
// block of input indexes, so both panels stream at once.
void fma_tile32(const float* x, std::int64_t ldx, std::int64_t m,
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
