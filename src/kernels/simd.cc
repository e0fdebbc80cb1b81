#include "kernels/simd.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

// The AVX2 path is compiled whenever the toolchain can target x86 AVX2 via
// per-function attributes, independent of the global -march flags; builds
// with DSINFER_SIMD_SCALAR_ONLY (or non-x86 targets) drop it entirely and
// every call resolves to the scalar fallback.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__)) &&  \
    !defined(DSINFER_SIMD_SCALAR_ONLY)
#define DSINFER_SIMD_X86 1
#include <immintrin.h>
#endif

namespace dsinfer::kernels::simd {

namespace {

std::atomic<KernelIsa> g_override{KernelIsa::kAuto};

bool detect_avx2() {
#if defined(DSINFER_SIMD_X86)
#if defined(__AVX2__) && defined(__FMA__)
  // Compile-time baseline (e.g. -DDSINFER_NATIVE_ARCH=ON on an AVX2 host):
  // the whole binary already assumes the ISA, no cpuid needed.
  return true;
#else
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
#else
  return false;
#endif
}

// ---- scalar fallback ---------------------------------------------------
// These loops are also the numerical definition: the AVX2 versions may
// reassociate sums (tests compare with tolerance) but must agree exactly for
// integer arithmetic.

float dot_scalar(const float* a, const float* b, std::int64_t n) {
  float acc = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void axpy_scalar(float alpha, const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale_add_scalar(const float* x, float alpha, float beta, float* y,
                      std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = alpha * x[i] + beta;
}

void add_bias_scalar(const float* x, const float* bias, float* y,
                     std::int64_t n) {
  if (bias == nullptr) {
    std::memcpy(y, x, static_cast<std::size_t>(n) * sizeof(float));
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] + bias[i];
}

void add_bias_residual_scalar(const float* x, const float* bias,
                              const float* residual, float* y,
                              std::int64_t n) {
  if (bias == nullptr) {
    for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] + residual[i];
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] + residual[i] + bias[i];
}

void sum_sumsq_scalar(const float* x, std::int64_t n, double* sum,
                      double* sumsq) {
  double s = 0.0, sq = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    s += x[i];
    sq += static_cast<double>(x[i]) * x[i];
  }
  *sum += s;
  *sumsq += sq;
}

void norm_affine_scalar(const float* x, const float* gamma, const float* beta,
                        float* y, std::int64_t n, float mu, float inv_std) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float g = gamma ? gamma[i] : 1.0f;
    const float b = beta ? beta[i] : 0.0f;
    y[i] = (x[i] - mu) * inv_std * g + b;
  }
}

float reduce_max_scalar(const float* x, std::int64_t n) {
  float m = -std::numeric_limits<float>::infinity();
  for (std::int64_t i = 0; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

float reduce_absmax_scalar(const float* x, std::int64_t n) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

float exp_sum_inplace_scalar(float* x, std::int64_t n, float bias) {
  float sum = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float e = std::exp(x[i] - bias);
    x[i] = e;
    sum += e;
  }
  return sum;
}

float gelu_one(float v) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  return 0.5f * v * (1.0f + std::tanh(kC * (v + 0.044715f * v * v * v)));
}

void gelu_bias_scalar(const float* x, const float* bias, float* y,
                      std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = gelu_one(x[i] + (bias ? bias[i] : 0.0f));
  }
}

// The multi-row tile twin: acc rows are ldacc floats apart; panel1 == nullptr
// covers 8 lanes. fma_tile8 (ldacc 8) and fma_tile16 (ldacc 16) share it.
void fma_tile_scalar(const float* x, std::int64_t ldx, std::int64_t m,
                     const float* panel0, const float* panel1, std::int64_t n,
                     float* acc, std::int64_t ldacc) {
  const std::int64_t lanes = panel1 ? 16 : 8;
  for (std::int64_t r = 0; r < m; ++r) {
    const float* xr = x + r * ldx;
    // Local accumulators: the compiler cannot prove that acc aliases
    // neither x nor the panels, so it would reload and store acc on every
    // input index.
    float a[16];
    for (std::int64_t j = 0; j < lanes; ++j) a[j] = acc[r * ldacc + j];
    for (std::int64_t i = 0; i < n; ++i) {
      const float xv = xr[i];
      const float* w0 = panel0 + i * 8;
      for (std::int64_t j = 0; j < 8; ++j) a[j] += xv * w0[j];
      if (panel1) {
        const float* w1 = panel1 + i * 8;
        for (std::int64_t j = 0; j < 8; ++j) a[8 + j] += xv * w1[j];
      }
    }
    for (std::int64_t j = 0; j < lanes; ++j) acc[r * ldacc + j] = a[j];
  }
}

std::int32_t dot_i8_scalar(const std::int8_t* a, const std::int8_t* b,
                           std::int64_t n) {
  std::int32_t acc = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return acc;
}

void quantize_i8_scalar(const float* x, float inv_scale, std::int8_t* q,
                        std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[i] * inv_scale;
    q[i] = static_cast<std::int8_t>(
        std::lrintf(v < -127.0f ? -127.0f : (v > 127.0f ? 127.0f : v)));
  }
}

#if defined(DSINFER_SIMD_X86)

// ---- AVX2 + FMA path ---------------------------------------------------

#define DSINFER_AVX2 __attribute__((target("avx2,fma")))

DSINFER_AVX2 inline float hsum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

DSINFER_AVX2 inline double hsum256d(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

DSINFER_AVX2 inline std::int32_t hsum256i(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  lo = _mm_add_epi32(lo, hi);
  lo = _mm_add_epi32(lo, _mm_srli_si128(lo, 8));
  lo = _mm_add_epi32(lo, _mm_srli_si128(lo, 4));
  return _mm_cvtsi128_si32(lo);
}

// Cephes-style polynomial exp: max relative error ~2 ULP over the clamped
// range, exact at 0. Shared by softmax, attention, and the tanh in gelu.
DSINFER_AVX2 inline __m256 exp256(__m256 x) {
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-87.3365478515625f)),
                    _mm256_set1_ps(88.3762626647950f));
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  __m256 r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), r);
  const __m256 r2 = _mm256_mul_ps(r, r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  p = _mm256_fmadd_ps(p, r2, _mm256_add_ps(r, _mm256_set1_ps(1.0f)));
  __m256i n = _mm256_cvtps_epi32(fx);
  n = _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(n));
}

DSINFER_AVX2 float dot_avx2(const float* a, const float* b, std::int64_t n) {
  __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
  __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    a0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), a0);
    a1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8),
                         a1);
    a2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                         _mm256_loadu_ps(b + i + 16), a2);
    a3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                         _mm256_loadu_ps(b + i + 24), a3);
  }
  for (; i + 8 <= n; i += 8) {
    a0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), a0);
  }
  float acc = hsum256(_mm256_add_ps(_mm256_add_ps(a0, a1),
                                    _mm256_add_ps(a2, a3)));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

DSINFER_AVX2 void axpy_avx2(float alpha, const float* x, float* y,
                            std::int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
    _mm256_storeu_ps(
        y + i + 8, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i + 8),
                                   _mm256_loadu_ps(y + i + 8)));
  }
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

DSINFER_AVX2 void scale_add_avx2(const float* x, float alpha, float beta,
                                 float* y, std::int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  const __m256 bv = _mm256_set1_ps(beta);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), bv));
  }
  for (; i < n; ++i) y[i] = alpha * x[i] + beta;
}

DSINFER_AVX2 void add_bias_avx2(const float* x, const float* bias, float* y,
                                std::int64_t n) {
  if (bias == nullptr) {
    std::memcpy(y, x, static_cast<std::size_t>(n) * sizeof(float));
    return;
  }
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(bias + i)));
  }
  for (; i < n; ++i) y[i] = x[i] + bias[i];
}

DSINFER_AVX2 void add_bias_residual_avx2(const float* x, const float* bias,
                                         const float* residual, float* y,
                                         std::int64_t n) {
  std::int64_t i = 0;
  if (bias == nullptr) {
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(residual + i)));
    }
    for (; i < n; ++i) y[i] = x[i] + residual[i];
    return;
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 s = _mm256_add_ps(_mm256_loadu_ps(x + i),
                                   _mm256_loadu_ps(residual + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(s, _mm256_loadu_ps(bias + i)));
  }
  for (; i < n; ++i) y[i] = x[i] + residual[i] + bias[i];
}

DSINFER_AVX2 void sum_sumsq_avx2(const float* x, std::int64_t n, double* sum,
                                 double* sumsq) {
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  __m256d q0 = _mm256_setzero_pd(), q1 = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    s0 = _mm256_add_pd(s0, lo);
    s1 = _mm256_add_pd(s1, hi);
    q0 = _mm256_fmadd_pd(lo, lo, q0);
    q1 = _mm256_fmadd_pd(hi, hi, q1);
  }
  double s = hsum256d(_mm256_add_pd(s0, s1));
  double sq = hsum256d(_mm256_add_pd(q0, q1));
  for (; i < n; ++i) {
    s += x[i];
    sq += static_cast<double>(x[i]) * x[i];
  }
  *sum += s;
  *sumsq += sq;
}

DSINFER_AVX2 void norm_affine_avx2(const float* x, const float* gamma,
                                   const float* beta, float* y, std::int64_t n,
                                   float mu, float inv_std) {
  const __m256 muv = _mm256_set1_ps(mu);
  const __m256 iv = _mm256_set1_ps(inv_std);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 t = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), muv), iv);
    if (gamma) t = _mm256_mul_ps(t, _mm256_loadu_ps(gamma + i));
    if (beta) t = _mm256_add_ps(t, _mm256_loadu_ps(beta + i));
    _mm256_storeu_ps(y + i, t);
  }
  for (; i < n; ++i) {
    const float g = gamma ? gamma[i] : 1.0f;
    const float b = beta ? beta[i] : 0.0f;
    y[i] = (x[i] - mu) * inv_std * g + b;
  }
}

DSINFER_AVX2 float reduce_max_avx2(const float* x, std::int64_t n) {
  float m = -std::numeric_limits<float>::infinity();
  __m256 mv = _mm256_set1_ps(m);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) mv = _mm256_max_ps(mv, _mm256_loadu_ps(x + i));
  __m128 lo = _mm_max_ps(_mm256_castps256_ps128(mv),
                         _mm256_extractf128_ps(mv, 1));
  lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  m = _mm_cvtss_f32(lo);
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

DSINFER_AVX2 float reduce_absmax_avx2(const float* x, std::int64_t n) {
  const __m256 absmask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 mv = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    mv = _mm256_max_ps(mv, _mm256_and_ps(absmask, _mm256_loadu_ps(x + i)));
  }
  __m128 lo = _mm_max_ps(_mm256_castps256_ps128(mv),
                         _mm256_extractf128_ps(mv, 1));
  lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  float m = _mm_cvtss_f32(lo);
  for (; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

DSINFER_AVX2 float exp_sum_inplace_avx2(float* x, std::int64_t n, float bias) {
  const __m256 bv = _mm256_set1_ps(bias);
  __m256 sv = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = exp256(_mm256_sub_ps(_mm256_loadu_ps(x + i), bv));
    _mm256_storeu_ps(x + i, e);
    sv = _mm256_add_ps(sv, e);
  }
  float sum = hsum256(sv);
  for (; i < n; ++i) {
    const float e = std::exp(x[i] - bias);
    x[i] = e;
    sum += e;
  }
  return sum;
}

DSINFER_AVX2 void gelu_bias_avx2(const float* x, const float* bias, float* y,
                                 std::int64_t n) {
  const __m256 kC = _mm256_set1_ps(0.7978845608028654f);
  const __m256 kA = _mm256_set1_ps(0.044715f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 neg2 = _mm256_set1_ps(-2.0f);
  const __m256 signmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x80000000));
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    if (bias) v = _mm256_add_ps(v, _mm256_loadu_ps(bias + i));
    // z = kC * (v + kA * v^3); tanh(z) = sign(z) * (1 - e) / (1 + e) with
    // e = exp(-2|z|) in (0, 1], which never overflows.
    const __m256 v2 = _mm256_mul_ps(v, v);
    const __m256 z =
        _mm256_mul_ps(kC, _mm256_fmadd_ps(_mm256_mul_ps(kA, v2), v, v));
    const __m256 az = _mm256_andnot_ps(signmask, z);
    const __m256 e = exp256(_mm256_mul_ps(neg2, az));
    __m256 t = _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e));
    t = _mm256_or_ps(t, _mm256_and_ps(signmask, z));
    _mm256_storeu_ps(y + i, _mm256_mul_ps(half,
                                          _mm256_mul_ps(v, _mm256_add_ps(one, t))));
  }
  for (; i < n; ++i) y[i] = gelu_one(x[i] + (bias ? bias[i] : 0.0f));
}

// m == 1 specialization: a single row cannot fill the FMA pipeline with one
// accumulator chain, so the input dimension is unrolled 4x into independent
// chains (the decode-path workhorse of linear_sbi).
DSINFER_AVX2 void fma_tile8_m1_avx2(const float* x, const float* panel,
                                    std::int64_t n, float* acc) {
  __m256 a0 = _mm256_loadu_ps(acc);
  __m256 a1 = _mm256_setzero_ps(), a2 = _mm256_setzero_ps(),
         a3 = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 = _mm256_fmadd_ps(_mm256_broadcast_ss(x + i),
                         _mm256_loadu_ps(panel + (i + 0) * 8), a0);
    a1 = _mm256_fmadd_ps(_mm256_broadcast_ss(x + i + 1),
                         _mm256_loadu_ps(panel + (i + 1) * 8), a1);
    a2 = _mm256_fmadd_ps(_mm256_broadcast_ss(x + i + 2),
                         _mm256_loadu_ps(panel + (i + 2) * 8), a2);
    a3 = _mm256_fmadd_ps(_mm256_broadcast_ss(x + i + 3),
                         _mm256_loadu_ps(panel + (i + 3) * 8), a3);
  }
  for (; i < n; ++i) {
    a0 = _mm256_fmadd_ps(_mm256_broadcast_ss(x + i),
                         _mm256_loadu_ps(panel + i * 8), a0);
  }
  _mm256_storeu_ps(acc, _mm256_add_ps(_mm256_add_ps(a0, a1),
                                      _mm256_add_ps(a2, a3)));
}

// The multi-row tile: M rows x NP panels of accumulators stay in registers
// (the unroll pragmas make GCC scalarize the arrays; without them -O2 keeps
// them on the stack and every FMA round-trips through memory). Per input
// index: NP panel loads, M broadcasts, M*NP FMAs, each accumulator one
// sequential chain. acc rows are ldacc floats apart: fma_tile8 runs it with
// NP = 1 and ldacc 8, fma_tile16 with ldacc 16.
template <int M, int NP>
DSINFER_AVX2 void fma_tile_m_avx2(const float* x, std::int64_t ldx,
                                  const float* panel0, const float* panel1,
                                  std::int64_t n, float* acc,
                                  std::int64_t ldacc) {
  const float* xr[M];
  __m256 a[M][NP];
#pragma GCC unroll 6
  for (int r = 0; r < M; ++r) {
    xr[r] = x + r * ldx;
#pragma GCC unroll 2
    for (int q = 0; q < NP; ++q) {
      a[r][q] = _mm256_loadu_ps(acc + r * ldacc + q * 8);
    }
  }
  for (std::int64_t i = 0; i < n; ++i) {
    __m256 w[NP];
    w[0] = _mm256_loadu_ps(panel0 + i * 8);
    if constexpr (NP == 2) w[1] = _mm256_loadu_ps(panel1 + i * 8);
#pragma GCC unroll 6
    for (int r = 0; r < M; ++r) {
      const __m256 xv = _mm256_broadcast_ss(xr[r] + i);
#pragma GCC unroll 2
      for (int q = 0; q < NP; ++q) a[r][q] = _mm256_fmadd_ps(xv, w[q], a[r][q]);
    }
  }
#pragma GCC unroll 6
  for (int r = 0; r < M; ++r) {
#pragma GCC unroll 2
    for (int q = 0; q < NP; ++q) {
      _mm256_storeu_ps(acc + r * ldacc + q * 8, a[r][q]);
    }
  }
}

template <int NP>
DSINFER_AVX2 void fma_tile_avx2(const float* x, std::int64_t ldx,
                                std::int64_t m, const float* panel0,
                                const float* panel1, std::int64_t n,
                                float* acc, std::int64_t ldacc) {
  switch (m) {
    case 1:
      return fma_tile_m_avx2<1, NP>(x, ldx, panel0, panel1, n, acc, ldacc);
    case 2:
      return fma_tile_m_avx2<2, NP>(x, ldx, panel0, panel1, n, acc, ldacc);
    case 3:
      return fma_tile_m_avx2<3, NP>(x, ldx, panel0, panel1, n, acc, ldacc);
    case 4:
      return fma_tile_m_avx2<4, NP>(x, ldx, panel0, panel1, n, acc, ldacc);
    case 5:
      return fma_tile_m_avx2<5, NP>(x, ldx, panel0, panel1, n, acc, ldacc);
    default:
      return fma_tile_m_avx2<6, NP>(x, ldx, panel0, panel1, n, acc, ldacc);
  }
}

DSINFER_AVX2 std::int32_t dot_i8_avx2(const std::int8_t* a,
                                      const std::int8_t* b, std::int64_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i a16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i b16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a16, b16));
  }
  std::int32_t s = hsum256i(acc);
  for (; i < n; ++i) {
    s += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return s;
}

DSINFER_AVX2 void quantize_i8_avx2(const float* x, float inv_scale,
                                   std::int8_t* q, std::int64_t n) {
  const __m256 iv = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 v0 = _mm256_min_ps(
        hi, _mm256_max_ps(lo, _mm256_mul_ps(_mm256_loadu_ps(x + i), iv)));
    const __m256 v1 = _mm256_min_ps(
        hi, _mm256_max_ps(lo, _mm256_mul_ps(_mm256_loadu_ps(x + i + 8), iv)));
    __m256i p16 = _mm256_packs_epi32(_mm256_cvtps_epi32(v0),
                                     _mm256_cvtps_epi32(v1));
    p16 = _mm256_permute4x64_epi64(p16, _MM_SHUFFLE(3, 1, 2, 0));
    const __m128i p8 = _mm_packs_epi16(_mm256_castsi256_si128(p16),
                                       _mm256_extracti128_si256(p16, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i), p8);
  }
  for (; i < n; ++i) {
    const float v = x[i] * inv_scale;
    q[i] = static_cast<std::int8_t>(
        std::lrintf(v < -127.0f ? -127.0f : (v > 127.0f ? 127.0f : v)));
  }
}

#endif  // DSINFER_SIMD_X86

inline bool use_avx2() {
#if defined(DSINFER_SIMD_X86)
  return active_isa() == KernelIsa::kAvx2;
#else
  return false;
#endif
}

}  // namespace

bool cpu_has_avx2() {
  static const bool v = detect_avx2();
  return v;
}

KernelIsa active_isa() {
  const KernelIsa o = g_override.load(std::memory_order_relaxed);
  if (o == KernelIsa::kScalar) return KernelIsa::kScalar;
  return cpu_has_avx2() ? KernelIsa::kAvx2 : KernelIsa::kScalar;
}

void set_isa_override(KernelIsa isa) {
  g_override.store(isa, std::memory_order_relaxed);
}

KernelIsa isa_override() { return g_override.load(std::memory_order_relaxed); }

const char* isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAuto:
      return "auto";
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

float dot(const float* a, const float* b, std::int64_t n) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) return dot_avx2(a, b, n);
#endif
  return dot_scalar(a, b, n);
}

void axpy(float alpha, const float* x, float* y, std::int64_t n) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) return axpy_avx2(alpha, x, y, n);
#endif
  axpy_scalar(alpha, x, y, n);
}

void scale_add(const float* x, float alpha, float beta, float* y,
               std::int64_t n) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) return scale_add_avx2(x, alpha, beta, y, n);
#endif
  scale_add_scalar(x, alpha, beta, y, n);
}

void add_bias(const float* x, const float* bias, float* y, std::int64_t n) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) return add_bias_avx2(x, bias, y, n);
#endif
  add_bias_scalar(x, bias, y, n);
}

void add_bias_residual(const float* x, const float* bias,
                       const float* residual, float* y, std::int64_t n) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) return add_bias_residual_avx2(x, bias, residual, y, n);
#endif
  add_bias_residual_scalar(x, bias, residual, y, n);
}

void sum_sumsq(const float* x, std::int64_t n, double* sum, double* sumsq) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) return sum_sumsq_avx2(x, n, sum, sumsq);
#endif
  sum_sumsq_scalar(x, n, sum, sumsq);
}

void norm_affine(const float* x, const float* gamma, const float* beta,
                 float* y, std::int64_t n, float mu, float inv_std) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) return norm_affine_avx2(x, gamma, beta, y, n, mu, inv_std);
#endif
  norm_affine_scalar(x, gamma, beta, y, n, mu, inv_std);
}

float reduce_max(const float* x, std::int64_t n) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) return reduce_max_avx2(x, n);
#endif
  return reduce_max_scalar(x, n);
}

float reduce_absmax(const float* x, std::int64_t n) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) return reduce_absmax_avx2(x, n);
#endif
  return reduce_absmax_scalar(x, n);
}

float exp_sum_inplace(float* x, std::int64_t n, float bias) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) return exp_sum_inplace_avx2(x, n, bias);
#endif
  return exp_sum_inplace_scalar(x, n, bias);
}

void gelu_bias(const float* x, const float* bias, float* y, std::int64_t n) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) return gelu_bias_avx2(x, bias, y, n);
#endif
  gelu_bias_scalar(x, bias, y, n);
}

void fma_tile8(const float* x, std::int64_t ldx, std::int64_t m,
               const float* panel, std::int64_t n, float* acc) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) {
    return m == 1 ? fma_tile8_m1_avx2(x, panel, n, acc)
                  : fma_tile_avx2<1>(x, ldx, m, panel, nullptr, n, acc, 8);
  }
#endif
  fma_tile_scalar(x, ldx, m, panel, nullptr, n, acc, 8);
}

void fma_tile16(const float* x, std::int64_t ldx, std::int64_t m,
                const float* panel0, const float* panel1, std::int64_t n,
                float* acc) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) {
    return panel1 ? fma_tile_avx2<2>(x, ldx, m, panel0, panel1, n, acc, 16)
                  : fma_tile_avx2<1>(x, ldx, m, panel0, panel1, n, acc, 16);
  }
#endif
  fma_tile_scalar(x, ldx, m, panel0, panel1, n, acc, 16);
}

std::int32_t dot_i8(const std::int8_t* a, const std::int8_t* b,
                    std::int64_t n) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) return dot_i8_avx2(a, b, n);
#endif
  return dot_i8_scalar(a, b, n);
}

void quantize_i8(const float* x, float inv_scale, std::int8_t* q,
                 std::int64_t n) {
#if defined(DSINFER_SIMD_X86)
  if (use_avx2()) return quantize_i8_avx2(x, inv_scale, q, n);
#endif
  quantize_i8_scalar(x, inv_scale, q, n);
}

}  // namespace dsinfer::kernels::simd
