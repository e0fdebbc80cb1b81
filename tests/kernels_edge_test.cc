// Dimensional and numerical edge cases across the kernel library, plus the
// SBI two-kernel (input-split) reduction variant.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kernels/attention.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/quant.h"
#include "kernels/simd.h"
#include "kernels/tensor.h"
#include "util/rng.h"

namespace dsinfer::kernels {
namespace {

TEST(SbiSplit, MatchesSinglePassAcrossSplitCounts) {
  Rng rng(1);
  const std::int64_t m = 3, in = 137, out = 11;  // small out: the target case
  std::vector<float> x(static_cast<std::size_t>(m * in));
  std::vector<float> w(static_cast<std::size_t>(out * in));
  std::vector<float> bias(static_cast<std::size_t>(out));
  rng.fill_normal(x);
  rng.fill_normal(w, 0.0f, 0.1f);
  rng.fill_normal(bias);
  PackedWeight packed(w, out, in);
  std::vector<float> base(static_cast<std::size_t>(m * out));
  linear_sbi(x, packed, bias, base, m);
  for (std::int64_t splits : {1, 2, 3, 7, 137}) {
    std::vector<float> y(base.size());
    linear_sbi_split(x, packed, bias, y, m, splits);
    EXPECT_LT(max_abs_diff(base, y), 1e-3f) << "splits=" << splits;
  }
}

TEST(SbiSplit, RejectsBadSplitCounts) {
  std::vector<float> w(8, 1.0f), x(4), y(2);
  PackedWeight packed(w, 2, 4);
  EXPECT_THROW(linear_sbi_split(x, packed, {}, y, 1, 0),
               std::invalid_argument);
  EXPECT_THROW(linear_sbi_split(x, packed, {}, y, 1, 5),
               std::invalid_argument);
}

TEST(EdgeCases, OneByOneEverything) {
  std::vector<float> x{2.0f}, w{3.0f}, y(1);
  linear_ref(x, w, {}, y, 1, 1, 1);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  linear_blocked(x, w, {}, y, 1, 1, 1);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  PackedWeight p(w, 1, 1);
  linear_sbi(x, p, {}, y, 1);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  softmax_rows(y, 1, 1);
  EXPECT_FLOAT_EQ(y[0], 1.0f);  // softmax of a single column is 1
}

TEST(EdgeCases, LayernormConstantRow) {
  // Zero variance: output must be beta (the (x - mu) factor is 0).
  std::vector<float> x(8, 5.0f), y(8);
  std::vector<float> g(8, 2.0f), b(8, 0.25f);
  layernorm(x, g, b, y, 1, 8);
  for (float v : y) EXPECT_NEAR(v, 0.25f, 1e-3f);
  layernorm_unfused(x, g, b, y, 1, 8);
  for (float v : y) EXPECT_NEAR(v, 0.25f, 1e-3f);
}

TEST(EdgeCases, SoftmaxAllEqualIsUniform) {
  std::vector<float> x(10, -3.0f);
  softmax_rows(x, 1, 10);
  for (float v : x) EXPECT_NEAR(v, 0.1f, 1e-6f);
}

TEST(EdgeCases, SoftmaxVeryNegativeInputsStayFinite) {
  std::vector<float> x{-1e30f, -1e30f, 0.0f};
  softmax_rows(x, 1, 3);
  EXPECT_NEAR(x[2], 1.0f, 1e-6f);
  EXPECT_FALSE(std::isnan(x[0]));
}

TEST(EdgeCases, GeluMonotoneAboveZero) {
  float prev = gelu(0.0f);
  for (float v = 0.25f; v < 6.0f; v += 0.25f) {
    const float g = gelu(v);
    EXPECT_GT(g, prev);
    prev = g;
  }
}

TEST(EdgeCases, QuantizedWeightConstantRows) {
  // A constant row quantizes exactly (every entry hits +/-127 * scale).
  std::vector<float> w(2 * 8);
  for (std::size_t i = 0; i < 8; ++i) w[i] = 0.5f;
  for (std::size_t i = 8; i < 16; ++i) w[i] = -0.25f;
  QuantizedWeight qw(w, 2, 8);
  std::vector<float> x(8, 1.0f), y(2);
  linear_int8(x, qw, {}, y, 1);
  EXPECT_NEAR(y[0], 4.0f, 0.05f);
  EXPECT_NEAR(y[1], -2.0f, 0.05f);
}

TEST(EdgeCases, AttentionSingleHeadSingleDim) {
  KVCache c(1, 1, 1, 4);
  std::vector<float> k{1.0f, 2.0f}, v{10.0f, 20.0f};
  c.append(k, v, 2);
  std::vector<float> q{1.0f}, out(1);
  attention_fused(q, c, out, 1);
  // Softmax([1, 2]) weighted sum of [10, 20], scaled scores (hd=1, scale=1).
  const float e1 = std::exp(1.0f), e2 = std::exp(2.0f);
  EXPECT_NEAR(out[0], (e1 * 10 + e2 * 20) / (e1 + e2), 1e-4f);
}

TEST(EdgeCases, MatmulDegenerateDims) {
  std::vector<float> a{1, 2, 3}, b{4, 5, 6}, c(1);
  matmul(a, b, c, 1, 3, 1);  // dot product
  EXPECT_FLOAT_EQ(c[0], 32.0f);
  std::vector<float> outer(9);
  matmul(a, b, outer, 3, 1, 3);  // outer product
  EXPECT_FLOAT_EQ(outer[0], 4.0f);
  EXPECT_FLOAT_EQ(outer[8], 18.0f);
}

TEST(EdgeCases, TensorZeroDimAllowed) {
  Tensor t({0, 5});
  EXPECT_EQ(t.numel(), 0);
  Tensor u({3});
  EXPECT_THROW(u.reshape({-1}), std::invalid_argument);
}

TEST(EdgeCases, PackedWeightSinglePanelExactlyFull) {
  // out == kPanelOut: one panel, no padding.
  constexpr std::int64_t kP = PackedWeight::kPanelOut;
  std::vector<float> w(kP * 3, 1.5f);
  PackedWeight p(w, kP, 3);
  EXPECT_EQ(p.num_panels(), 1);
  EXPECT_EQ(p.panel(0).size(), static_cast<std::size_t>(kP * 3));
  std::vector<float> x{1, 1, 1}, y(kP);
  linear_sbi(x, p, {}, y, 1);
  for (float v : y) EXPECT_FLOAT_EQ(v, 4.5f);
}

TEST(EdgeCases, SbiPanelPaddingMatchesReference) {
  // out around the 16-wide panel: a partial single panel, exactly one, one
  // past, and odd panel counts (33 and 48 give 3), so the two-panel items
  // of m >= 2 end on a one-panel item. The zero-padded lanes must never
  // reach y: every row matches linear_ref and the sentinel past y stays
  // intact. m = 9 and 17 take several row passes on every SIMD body.
  Rng rng(21);
  const std::int64_t in = 37;
  const float kSentinel = -7.25f;
  for (std::int64_t out : {1, 7, 15, 16, 17, 31, 33, 48}) {
    std::vector<float> w(static_cast<std::size_t>(out * in));
    std::vector<float> bias(static_cast<std::size_t>(out));
    rng.fill_normal(w, 0.0f, 0.1f);
    rng.fill_normal(bias);
    PackedWeight packed(w, out, in);
    EXPECT_EQ(packed.num_panels(),
              (out + PackedWeight::kPanelOut - 1) / PackedWeight::kPanelOut);
    for (std::int64_t m : {1, 2, 8, 9, 17}) {
      std::vector<float> x(static_cast<std::size_t>(m * in));
      rng.fill_normal(x);
      std::vector<float> ref(static_cast<std::size_t>(m * out));
      linear_ref(x, w, bias, ref, m, in, out);
      for (simd::KernelIsa isa :
           {simd::KernelIsa::kScalar, simd::KernelIsa::kAvx2,
            simd::KernelIsa::kAvx512}) {
        simd::IsaOverrideGuard guard(isa);
        std::vector<float> y(ref.size() + 16, kSentinel);
        std::span<float> ys(y.data(), ref.size());
        linear_sbi(x, packed, bias, ys, m);
        std::vector<float> got(y.begin(), y.begin() + ref.size());
        EXPECT_LT(max_abs_diff(got, ref), 1e-5f)
            << simd::isa_name(simd::active_isa()) << " sbi out=" << out
            << " m=" << m;
        for (std::size_t k = ref.size(); k < y.size(); ++k) {
          EXPECT_EQ(y[k], kSentinel) << "sbi out=" << out << " m=" << m;
        }
        std::fill(y.begin(), y.end(), kSentinel);
        linear_sbi_split(x, packed, bias, ys, m, 3);
        got.assign(y.begin(), y.begin() + ref.size());
        EXPECT_LT(max_abs_diff(got, ref), 1e-5f)
            << simd::isa_name(simd::active_isa()) << " split out=" << out
            << " m=" << m;
        for (std::size_t k = ref.size(); k < y.size(); ++k) {
          EXPECT_EQ(y[k], kSentinel) << "split out=" << out << " m=" << m;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dsinfer::kernels
