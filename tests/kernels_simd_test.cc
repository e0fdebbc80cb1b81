// SIMD-vs-scalar parity for the micro-kernel vocabulary and every kernel
// rewritten on top of it, at deliberately awkward shapes: lengths that are
// not multiples of the 8-wide vector, tail panels, m=1 decode, empty bias,
// and the bitwise FMA-chain contract of the multi-row SBI tile.
//
// The same source also builds as kernels_simd_scalar_test against the
// scalar-only kernel library (DSINFER_SIMD_SCALAR_ONLY), where
// cpu_has_avx2() is false and the parity runs degenerate to scalar-vs-scalar
// bit-exact checks — proving the portable fallback stands alone.
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/attention.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/kv_cache.h"
#include "kernels/quant.h"
#include "kernels/simd.h"
#include "kernels/transformer_layer.h"
#include "util/rng.h"

namespace {

using namespace dsinfer;
using namespace dsinfer::kernels;

// Relative-or-absolute tolerance: tight enough to catch wrong lanes/tails
// (which produce O(1) errors), loose enough for FMA reassociation and the
// polynomial exp (a few ULP).
void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  float rel = 1e-5f, float abs = 1e-6f) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float tol = abs + rel * std::fabs(b[i]);
    EXPECT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

std::vector<float> random_vec(Rng& rng, std::size_t n, float stddev = 1.0f) {
  std::vector<float> v(n);
  rng.fill_normal(v, 0.0f, stddev);
  return v;
}

// Lengths exercising full vectors, tails, and sub-vector sizes.
const std::int64_t kAwkwardLens[] = {1, 3, 7, 8, 9, 15, 16, 31, 100, 257};

TEST(SimdDispatch, OverrideSwitchesActiveIsa) {
  ASSERT_EQ(simd::isa_override(), simd::KernelIsa::kAuto);
  {
    simd::IsaOverrideGuard guard(simd::KernelIsa::kScalar);
    EXPECT_EQ(simd::active_isa(), simd::KernelIsa::kScalar);
  }
  {
    simd::IsaOverrideGuard guard(simd::KernelIsa::kAvx2);
    // Degrades to scalar when the AVX2 path is unavailable (non-x86 or
    // scalar-only build); otherwise the request must stick.
    EXPECT_EQ(simd::active_isa(), simd::cpu_has_avx2()
                                      ? simd::KernelIsa::kAvx2
                                      : simd::KernelIsa::kScalar);
  }
  // Guard restored auto dispatch.
  EXPECT_EQ(simd::isa_override(), simd::KernelIsa::kAuto);
  EXPECT_EQ(simd::active_isa(), simd::cpu_has_avx2() ? simd::KernelIsa::kAvx2
                                                     : simd::KernelIsa::kScalar);
}

TEST(SimdDispatch, OverrideActuallySwitchesPaths) {
  if (!simd::cpu_has_avx2()) {
    GTEST_SKIP() << "scalar-only build/host: single path by construction";
  }
  // The two paths reassociate a long unit-stride sum differently; with
  // deterministic inputs the results must differ in the low bits for a
  // length this large — if they are bitwise equal, the override did not
  // actually change the executed path.
  Rng rng(11);
  const std::int64_t n = 4099;
  auto a = random_vec(rng, n);
  auto b = random_vec(rng, n);
  float d_scalar, d_simd;
  {
    simd::IsaOverrideGuard g(simd::KernelIsa::kScalar);
    d_scalar = simd::dot(a.data(), b.data(), n);
  }
  {
    simd::IsaOverrideGuard g(simd::KernelIsa::kAvx2);
    d_simd = simd::dot(a.data(), b.data(), n);
  }
  EXPECT_NE(std::bit_cast<std::uint32_t>(d_scalar),
            std::bit_cast<std::uint32_t>(d_simd));
  EXPECT_NEAR(d_scalar, d_simd, 1e-2f);
}

TEST(SimdVocabulary, DotAxpyScaleAddParity) {
  Rng rng(1);
  for (std::int64_t n : kAwkwardLens) {
    auto a = random_vec(rng, n);
    auto b = random_vec(rng, n);
    auto y0 = random_vec(rng, n);
    auto y1 = y0;

    float dot_s, dot_v;
    {
      simd::IsaOverrideGuard g(simd::KernelIsa::kScalar);
      dot_s = simd::dot(a.data(), b.data(), n);
      simd::axpy(0.37f, a.data(), y0.data(), n);
      simd::scale_add(y0.data(), 1.5f, -0.25f, y0.data(), n);
    }
    {
      simd::IsaOverrideGuard g(simd::KernelIsa::kAvx2);
      dot_v = simd::dot(a.data(), b.data(), n);
      simd::axpy(0.37f, a.data(), y1.data(), n);
      simd::scale_add(y1.data(), 1.5f, -0.25f, y1.data(), n);
    }
    EXPECT_NEAR(dot_s, dot_v, 1e-6f + 1e-5f * std::fabs(dot_s)) << "n=" << n;
    expect_close(y1, y0);
  }
}

TEST(SimdVocabulary, ReductionsAndExpParity) {
  Rng rng(2);
  for (std::int64_t n : kAwkwardLens) {
    auto a = random_vec(rng, n, 2.0f);
    auto x0 = a;
    auto x1 = a;
    float mx_s, mx_v, am_s, am_v, es_s, es_v;
    double sum_s = 0, sq_s = 0, sum_v = 0, sq_v = 0;
    {
      simd::IsaOverrideGuard g(simd::KernelIsa::kScalar);
      mx_s = simd::reduce_max(a.data(), n);
      am_s = simd::reduce_absmax(a.data(), n);
      simd::sum_sumsq(a.data(), n, &sum_s, &sq_s);
      es_s = simd::exp_sum_inplace(x0.data(), n, mx_s);
    }
    {
      simd::IsaOverrideGuard g(simd::KernelIsa::kAvx2);
      mx_v = simd::reduce_max(a.data(), n);
      am_v = simd::reduce_absmax(a.data(), n);
      simd::sum_sumsq(a.data(), n, &sum_v, &sq_v);
      es_v = simd::exp_sum_inplace(x1.data(), n, mx_v);
    }
    EXPECT_EQ(mx_s, mx_v) << "n=" << n;  // max is exact in both paths
    EXPECT_EQ(am_s, am_v) << "n=" << n;
    EXPECT_NEAR(sum_s, sum_v, 1e-9 + 1e-8 * std::fabs(sum_s));
    EXPECT_NEAR(sq_s, sq_v, 1e-9 + 1e-8 * std::fabs(sq_s));
    EXPECT_NEAR(es_s, es_v, 1e-6f + 1e-5f * std::fabs(es_s));
    expect_close(x1, x0);
  }
}

TEST(SimdVocabulary, GeluBiasAndNormAffineParity) {
  Rng rng(3);
  for (std::int64_t n : kAwkwardLens) {
    auto a = random_vec(rng, n, 3.0f);  // wide range stresses tanh saturation
    auto bias = random_vec(rng, n);
    auto g = random_vec(rng, n);
    auto be = random_vec(rng, n);
    std::vector<float> y0(n), y1(n), z0(n), z1(n), w0(n), w1(n);
    {
      simd::IsaOverrideGuard gu(simd::KernelIsa::kScalar);
      simd::gelu_bias(a.data(), bias.data(), y0.data(), n);
      simd::gelu_bias(a.data(), nullptr, z0.data(), n);
      simd::norm_affine(a.data(), g.data(), be.data(), w0.data(), n, 0.1f,
                        0.9f);
    }
    {
      simd::IsaOverrideGuard gu(simd::KernelIsa::kAvx2);
      simd::gelu_bias(a.data(), bias.data(), y1.data(), n);
      simd::gelu_bias(a.data(), nullptr, z1.data(), n);
      simd::norm_affine(a.data(), g.data(), be.data(), w1.data(), n, 0.1f,
                        0.9f);
    }
    expect_close(y1, y0, 1e-5f, 1e-6f);
    expect_close(z1, z0, 1e-5f, 1e-6f);
    expect_close(w1, w0);
  }
}

TEST(SimdVocabulary, FmaTile8ParityAllRowCounts) {
  Rng rng(4);
  for (std::int64_t n : kAwkwardLens) {
    for (std::int64_t m = 1; m <= simd::kTileRows; ++m) {
      const std::int64_t ldx = n + 5;  // non-contiguous rows
      auto x = random_vec(rng, static_cast<std::size_t>(m * ldx));
      auto panel = random_vec(rng, static_cast<std::size_t>(n * 8));
      std::vector<float> acc0(static_cast<std::size_t>(m * 8), 0.5f);
      auto acc1 = acc0;
      {
        simd::IsaOverrideGuard g(simd::KernelIsa::kScalar);
        simd::fma_tile8(x.data(), ldx, m, panel.data(), n, acc0.data());
      }
      {
        simd::IsaOverrideGuard g(simd::KernelIsa::kAvx2);
        simd::fma_tile8(x.data(), ldx, m, panel.data(), n, acc1.data());
      }
      expect_close(acc1, acc0, 1e-5f, 1e-5f);
    }
  }
}

// A std::fmaf chain over i starting from `init`: the numerics fma_tile16
// promises on AVX2 for every output lane.
float fmaf_chain(const float* x, const float* w, std::int64_t wstride,
                 std::int64_t n, float init) {
  float acc = init;
  for (std::int64_t i = 0; i < n; ++i) acc = std::fmaf(x[i], w[i * wstride], acc);
  return acc;
}

TEST(SimdVocabulary, FmaTile16ParityRowsAndPanels) {
  Rng rng(14);
  for (std::int64_t n : kAwkwardLens) {
    for (std::int64_t m = 1; m <= simd::kWideTileRows; ++m) {
      for (int np : {1, 2}) {
        const std::int64_t ldx = n + 3;  // non-contiguous rows
        auto x = random_vec(rng, static_cast<std::size_t>(m * ldx));
        auto p0 = random_vec(rng, static_cast<std::size_t>(n * 8));
        auto p1 = random_vec(rng, static_cast<std::size_t>(n * 8));
        const float* panel1 = np == 2 ? p1.data() : nullptr;
        std::vector<float> acc0(static_cast<std::size_t>(m * 16), 0.5f);
        auto acc1 = acc0;
        {
          simd::IsaOverrideGuard g(simd::KernelIsa::kScalar);
          simd::fma_tile16(x.data(), ldx, m, p0.data(), panel1, n,
                           acc0.data());
        }
        {
          simd::IsaOverrideGuard g(simd::KernelIsa::kAvx2);
          simd::fma_tile16(x.data(), ldx, m, p0.data(), panel1, n,
                           acc1.data());
        }
        expect_close(acc1, acc0, 1e-5f, 1e-5f);
        for (std::int64_t r = 0; r < m; ++r) {
          for (std::int64_t j = 8 * np; j < 16; ++j) {  // untouched lanes
            EXPECT_EQ(acc0[static_cast<std::size_t>(r * 16 + j)], 0.5f);
            EXPECT_EQ(acc1[static_cast<std::size_t>(r * 16 + j)], 0.5f);
          }
        }
        if (!simd::cpu_has_avx2()) continue;
        for (std::int64_t r = 0; r < m; ++r) {
          for (std::int64_t j = 0; j < 8 * np; ++j) {
            const float* panel = j < 8 ? p0.data() : p1.data();
            const float want = fmaf_chain(x.data() + r * ldx, panel + j % 8,
                                          8, n, 0.5f);
            EXPECT_EQ(std::bit_cast<std::uint32_t>(
                          acc1[static_cast<std::size_t>(r * 16 + j)]),
                      std::bit_cast<std::uint32_t>(want))
                << "n=" << n << " m=" << m << " r=" << r << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(SimdVocabulary, Int8DotAndQuantizeBitwiseParity) {
  Rng rng(5);
  for (std::int64_t n : kAwkwardLens) {
    auto xf = random_vec(rng, n, 40.0f);
    std::vector<std::int8_t> qa(n), qb(n), q0(n), q1(n);
    for (std::int64_t i = 0; i < n; ++i) {
      qa[i] = static_cast<std::int8_t>((i * 37 + 11) % 255 - 127);
      qb[i] = static_cast<std::int8_t>((i * 53 + 5) % 255 - 127);
    }
    std::int32_t d0, d1;
    {
      simd::IsaOverrideGuard g(simd::KernelIsa::kScalar);
      d0 = simd::dot_i8(qa.data(), qb.data(), n);
      simd::quantize_i8(xf.data(), 127.0f / 100.0f, q0.data(), n);
    }
    {
      simd::IsaOverrideGuard g(simd::KernelIsa::kAvx2);
      d1 = simd::dot_i8(qa.data(), qb.data(), n);
      simd::quantize_i8(xf.data(), 127.0f / 100.0f, q1.data(), n);
    }
    // Integer arithmetic: both paths must agree exactly.
    EXPECT_EQ(d0, d1) << "n=" << n;
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(q0[i], q1[i]) << "n=" << n << " i=" << i;
    }
  }
}

// ---- kernel-level parity at awkward shapes -----------------------------

struct LinearShapes {
  std::int64_t m, in, out;
};

// in/out not multiples of 8 (tail panel + tail vector), m=1 decode, and a
// multi-tile row count.
const LinearShapes kLinearShapes[] = {
    {1, 100, 36}, {3, 37, 13}, {1, 8, 8},    {6, 257, 64},
    {2, 64, 7},   {7, 100, 36}, {13, 37, 13}, {32, 257, 24},
};

template <typename Fn>
std::vector<float> run_linear_with_isa(simd::KernelIsa isa, const Fn& fn,
                                       std::size_t out_size) {
  simd::IsaOverrideGuard g(isa);
  std::vector<float> y(out_size, -1.0f);
  fn(y);
  return y;
}

TEST(SimdKernelParity, LinearFamily) {
  Rng rng(6);
  for (const auto& s : kLinearShapes) {
    auto x = random_vec(rng, static_cast<std::size_t>(s.m * s.in));
    auto w = random_vec(rng, static_cast<std::size_t>(s.out * s.in), 0.1f);
    auto bias = random_vec(rng, static_cast<std::size_t>(s.out));
    PackedWeight packed(w, s.out, s.in);
    for (bool with_bias : {true, false}) {
      std::span<const float> b =
          with_bias ? std::span<const float>(bias) : std::span<const float>();
      auto run_all = [&](simd::KernelIsa isa) {
        std::vector<std::vector<float>> ys;
        ys.push_back(run_linear_with_isa(isa, [&](std::vector<float>& y) {
          linear_ref(x, w, b, y, s.m, s.in, s.out);
        }, static_cast<std::size_t>(s.m * s.out)));
        ys.push_back(run_linear_with_isa(isa, [&](std::vector<float>& y) {
          linear_blocked(x, w, b, y, s.m, s.in, s.out);
        }, static_cast<std::size_t>(s.m * s.out)));
        ys.push_back(run_linear_with_isa(isa, [&](std::vector<float>& y) {
          linear_sbi(x, packed, b, y, s.m);
        }, static_cast<std::size_t>(s.m * s.out)));
        ys.push_back(run_linear_with_isa(isa, [&](std::vector<float>& y) {
          linear_sbi_split(x, packed, b, y, s.m,
                           std::min<std::int64_t>(4, s.in));
        }, static_cast<std::size_t>(s.m * s.out)));
        return ys;
      };
      auto scalar = run_all(simd::KernelIsa::kScalar);
      auto simd_y = run_all(simd::KernelIsa::kAvx2);
      for (std::size_t k = 0; k < scalar.size(); ++k) {
        expect_close(simd_y[k], scalar[k], 1e-5f, 1e-5f);
      }
    }
  }
}

TEST(SimdKernelParity, LinearSbiMultiRowIsOneFmaChainPerOutput) {
  // Every multi-row linear_sbi output is one sequential FMA chain over the
  // input index: on AVX2 it equals a std::fmaf chain from 0 plus the bias,
  // bitwise, and on every path a row's result does not depend on the other
  // rows of the call. m covers 1..2 full 6-row tiles with every remainder,
  // out covers odd panel counts, a tail panel and out < 8.
  Rng rng(15);
  std::vector<std::int64_t> ms;
  for (std::int64_t m = 2; m <= 13; ++m) ms.push_back(m);
  ms.push_back(32);
  ms.push_back(33);
  for (std::int64_t out : {7, 8, 13, 16, 24, 36, 64}) {
    for (std::int64_t in : {1, 8, 37, 257}) {
      auto w = random_vec(rng, static_cast<std::size_t>(out * in), 0.1f);
      auto bias = random_vec(rng, static_cast<std::size_t>(out));
      PackedWeight packed(w, out, in);
      for (std::int64_t m : ms) {
        auto x = random_vec(rng, static_cast<std::size_t>(m * in));
        for (bool with_bias : {true, false}) {
          std::span<const float> b = with_bias ? std::span<const float>(bias)
                                               : std::span<const float>();
          for (simd::KernelIsa isa :
               {simd::KernelIsa::kScalar, simd::KernelIsa::kAvx2}) {
            simd::IsaOverrideGuard g(isa);
            const bool avx2 = simd::active_isa() == simd::KernelIsa::kAvx2;
            std::vector<float> y(static_cast<std::size_t>(m * out));
            linear_sbi(x, packed, b, y, m);
            std::vector<float> ref(y.size());
            linear_ref(x, w, b, ref, m, in, out);
            int chain_mismatches = 0, row_mismatches = 0;
            for (std::int64_t r = 0; r < m; ++r) {
              const float* xr = x.data() + r * in;
              std::vector<float> x2(xr, xr + in);
              x2.insert(x2.end(), xr, xr + in);
              std::vector<float> y2(static_cast<std::size_t>(2 * out));
              linear_sbi(x2, packed, b, y2, 2);
              for (std::int64_t o = 0; o < out; ++o) {
                const float got = y[static_cast<std::size_t>(r * out + o)];
                if (std::bit_cast<std::uint32_t>(got) !=
                    std::bit_cast<std::uint32_t>(
                        y2[static_cast<std::size_t>(o)])) {
                  ++row_mismatches;
                }
                if (avx2) {
                  const float want =
                      fmaf_chain(xr, w.data() + o * in, 1, in, 0.0f) +
                      (with_bias ? bias[static_cast<std::size_t>(o)] : 0.0f);
                  if (std::bit_cast<std::uint32_t>(got) !=
                      std::bit_cast<std::uint32_t>(want)) {
                    ++chain_mismatches;
                  }
                }
              }
            }
            EXPECT_EQ(chain_mismatches, 0)
                << "m=" << m << " in=" << in << " out=" << out;
            EXPECT_EQ(row_mismatches, 0)
                << simd::isa_name(simd::active_isa()) << " m=" << m
                << " in=" << in << " out=" << out;
            expect_close(y, ref, 1e-5f, 1e-5f);
          }
        }
      }
    }
  }
}

TEST(SimdKernelParity, Matmul) {
  Rng rng(7);
  for (auto [m, k, n] : {std::array<std::int64_t, 3>{1, 7, 13},
                         std::array<std::int64_t, 3>{5, 33, 9},
                         std::array<std::int64_t, 3>{16, 64, 100}}) {
    auto a = random_vec(rng, static_cast<std::size_t>(m * k));
    auto b = random_vec(rng, static_cast<std::size_t>(k * n));
    std::vector<float> c0(static_cast<std::size_t>(m * n));
    auto c1 = c0;
    {
      simd::IsaOverrideGuard g(simd::KernelIsa::kScalar);
      matmul(a, b, c0, m, k, n);
    }
    {
      simd::IsaOverrideGuard g(simd::KernelIsa::kAvx2);
      matmul(a, b, c1, m, k, n);
    }
    expect_close(c1, c0, 1e-5f, 1e-5f);
  }
}

TEST(SimdKernelParity, LinearInt8) {
  Rng rng(8);
  const std::int64_t m = 3, in = 100, out = 21;
  auto x = random_vec(rng, static_cast<std::size_t>(m * in));
  auto w = random_vec(rng, static_cast<std::size_t>(out * in), 0.1f);
  QuantizedWeight q(w, out, in);
  std::vector<float> y0(static_cast<std::size_t>(m * out));
  auto y1 = y0;
  {
    simd::IsaOverrideGuard g(simd::KernelIsa::kScalar);
    linear_int8(x, q, {}, y0, m);
  }
  {
    simd::IsaOverrideGuard g(simd::KernelIsa::kAvx2);
    linear_int8(x, q, {}, y1, m);
  }
  // Quantize + i8 dot are bitwise across paths; the dequant epilogue is
  // identical scalar math — so INT8 linear parity is exact.
  for (std::size_t i = 0; i < y0.size(); ++i) {
    EXPECT_EQ(y0[i], y1[i]) << "at " << i;
  }
}

TEST(SimdKernelParity, AttentionFusedDecodeAndPrompt) {
  Rng rng(9);
  const std::int64_t batch = 2, heads = 3, hd = 20, max_seq = 37;
  for (std::int64_t q_len : {std::int64_t{1}, std::int64_t{5}}) {
    KVCache cache(batch, heads, hd, max_seq);
    const std::int64_t past = 17;
    auto hist =
        random_vec(rng, static_cast<std::size_t>(batch * past * heads * hd));
    cache.append(hist, hist, past);
    auto cur =
        random_vec(rng, static_cast<std::size_t>(batch * q_len * heads * hd));
    cache.append(cur, cur, q_len);
    auto q =
        random_vec(rng, static_cast<std::size_t>(batch * q_len * heads * hd));
    std::vector<float> o0(q.size()), o1(q.size());
    {
      simd::IsaOverrideGuard g(simd::KernelIsa::kScalar);
      attention_fused(q, cache, o0, q_len, true);
    }
    {
      simd::IsaOverrideGuard g(simd::KernelIsa::kAvx2);
      attention_fused(q, cache, o1, q_len, true);
    }
    expect_close(o1, o0, 1e-5f, 1e-6f);
  }
}

TEST(SimdKernelParity, FusedElementwise) {
  Rng rng(10);
  for (std::int64_t cols : {std::int64_t{7}, std::int64_t{100},
                            std::int64_t{257}}) {
    const std::int64_t rows = 3;
    auto x = random_vec(rng, static_cast<std::size_t>(rows * cols));
    auto res = random_vec(rng, static_cast<std::size_t>(rows * cols));
    auto g = random_vec(rng, static_cast<std::size_t>(cols));
    auto b = random_vec(rng, static_cast<std::size_t>(cols));
    for (bool with_affine : {true, false}) {
      std::span<const float> gs =
          with_affine ? std::span<const float>(g) : std::span<const float>();
      std::span<const float> bs =
          with_affine ? std::span<const float>(b) : std::span<const float>();
      std::vector<float> ln0(x.size()), ln1(x.size()), gl0(x.size()),
          gl1(x.size()), br0(x.size()), br1(x.size());
      std::vector<float> sm0 = x, sm1 = x;
      {
        simd::IsaOverrideGuard gu(simd::KernelIsa::kScalar);
        layernorm(x, gs, bs, ln0, rows, cols);
        bias_gelu(x, bs, gl0, rows, cols);
        bias_residual(x, bs, res, br0, rows, cols);
        softmax_rows(sm0, rows, cols);
      }
      {
        simd::IsaOverrideGuard gu(simd::KernelIsa::kAvx2);
        layernorm(x, gs, bs, ln1, rows, cols);
        bias_gelu(x, bs, gl1, rows, cols);
        bias_residual(x, bs, res, br1, rows, cols);
        softmax_rows(sm1, rows, cols);
      }
      expect_close(ln1, ln0, 1e-5f, 1e-5f);
      expect_close(gl1, gl0, 1e-5f, 1e-6f);
      expect_close(br1, br0, 0.0f, 0.0f);  // pure adds: exact
      expect_close(sm1, sm0, 1e-5f, 1e-6f);
    }
  }
}

TEST(SimdKernelParity, TransformerLayerPolicyIsaPin) {
  // End-to-end: the same layer forward under policy-pinned scalar vs AVX2
  // ISA must agree, and the pin must not leak out of the call.
  Rng rng(12);
  LayerWeights w;
  w.init_random(rng, 64, 4, 256);
  KernelPolicy pol = KernelPolicy::optimized_small_batch();
  w.prepare(pol);

  auto run = [&](simd::KernelIsa isa) {
    KernelPolicy p = pol;
    p.isa = isa;
    KVCache cache(1, 4, 16, 8);
    LayerScratch scratch;
    Rng xr(13);
    std::vector<float> x(64 * 2);
    xr.fill_normal(x);
    transformer_layer_forward(w, cache, x, 1, 2, p, scratch);
    return x;
  };
  auto xs = run(simd::KernelIsa::kScalar);
  auto xv = run(simd::KernelIsa::kAvx2);
  expect_close(xv, xs, 1e-4f, 1e-5f);
  EXPECT_EQ(simd::isa_override(), simd::KernelIsa::kAuto);
}

}  // namespace
