#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "kernels/gemm.h"
#include "kernels/tensor.h"
#include "util/rng.h"

namespace dsinfer::kernels {
namespace {

struct Shape {
  std::int64_t m, in, out;
};

class GemmEquivalence : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmEquivalence, BlockedMatchesReference) {
  const auto [m, in, out] = GetParam();
  Rng rng(1);
  std::vector<float> x(static_cast<std::size_t>(m * in));
  std::vector<float> w(static_cast<std::size_t>(out * in));
  std::vector<float> bias(static_cast<std::size_t>(out));
  rng.fill_normal(x);
  rng.fill_normal(w, 0.0f, 0.1f);
  rng.fill_normal(bias, 0.0f, 0.1f);
  std::vector<float> y_ref(static_cast<std::size_t>(m * out));
  std::vector<float> y_blk(y_ref.size());
  linear_ref(x, w, bias, y_ref, m, in, out);
  linear_blocked(x, w, bias, y_blk, m, in, out);
  EXPECT_LT(max_abs_diff(y_ref, y_blk), 1e-3f);
}

TEST_P(GemmEquivalence, SbiMatchesReference) {
  const auto [m, in, out] = GetParam();
  Rng rng(2);
  std::vector<float> x(static_cast<std::size_t>(m * in));
  std::vector<float> w(static_cast<std::size_t>(out * in));
  std::vector<float> bias(static_cast<std::size_t>(out));
  rng.fill_normal(x);
  rng.fill_normal(w, 0.0f, 0.1f);
  rng.fill_normal(bias, 0.0f, 0.1f);
  std::vector<float> y_ref(static_cast<std::size_t>(m * out));
  std::vector<float> y_sbi(y_ref.size());
  linear_ref(x, w, bias, y_ref, m, in, out);
  PackedWeight packed(w, out, in);
  linear_sbi(x, packed, bias, y_sbi, m);
  EXPECT_LT(max_abs_diff(y_ref, y_sbi), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmEquivalence,
    ::testing::Values(Shape{1, 8, 8}, Shape{1, 64, 64}, Shape{2, 100, 50},
                      Shape{4, 33, 7}, Shape{8, 128, 256}, Shape{3, 256, 3},
                      Shape{16, 64, 96}, Shape{1, 1, 1}, Shape{5, 17, 19}),
    [](const auto& info) {
      const auto& s = info.param;
      return "m" + std::to_string(s.m) + "_in" + std::to_string(s.in) +
             "_out" + std::to_string(s.out);
    });

TEST(Gemm, ReferenceKnownValues) {
  // x = [1 2], W = [[3 4], [5 6]] (rows are output channels), bias = [1, -1].
  std::vector<float> x{1, 2};
  std::vector<float> w{3, 4, 5, 6};
  std::vector<float> bias{1, -1};
  std::vector<float> y(2);
  linear_ref(x, w, bias, y, 1, 2, 2);
  EXPECT_FLOAT_EQ(y[0], 1 * 3 + 2 * 4 + 1);
  EXPECT_FLOAT_EQ(y[1], 1 * 5 + 2 * 6 - 1);
}

TEST(Gemm, EmptyBiasMeansZero) {
  std::vector<float> x{2};
  std::vector<float> w{3};
  std::vector<float> y(1);
  linear_ref(x, w, {}, y, 1, 1, 1);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
}

TEST(Gemm, ThrowsOnShortSpans) {
  std::vector<float> x(2), w(4), y(1);  // y too small for m=1,out=2
  EXPECT_THROW(linear_ref(x, w, {}, y, 1, 2, 2), std::invalid_argument);
  EXPECT_THROW(linear_blocked(x, w, {}, y, 1, 2, 2), std::invalid_argument);
}

TEST(PackedWeight, PanelCountAndPadding) {
  constexpr std::int64_t kP = PackedWeight::kPanelOut;
  // out = kP + 2, in = 4 -> 2 panels of kP.
  std::vector<float> w(static_cast<std::size_t>((kP + 2) * 4), 1.0f);
  PackedWeight p(w, kP + 2, 4);
  EXPECT_EQ(p.num_panels(), 2);
  EXPECT_EQ(p.out(), kP + 2);
  EXPECT_EQ(p.in(), 4);
  // Padded tail outputs are zero in the second panel.
  auto panel = p.panel(1);
  // Element layout: panel[i * kP + j] is output (kP + j), input i.
  EXPECT_FLOAT_EQ(panel[0 * kP + 0], 1.0f);  // output kP exists
  EXPECT_FLOAT_EQ(panel[0 * kP + 2], 0.0f);  // output kP + 2 is padding
}

TEST(PackedWeight, InterleavedLayoutMatchesDefinition) {
  // out=2, in=3, W = [[1,2,3],[4,5,6]]; panel[i*kP+j] = W[j][i].
  constexpr std::int64_t kP = PackedWeight::kPanelOut;
  std::vector<float> w{1, 2, 3, 4, 5, 6};
  PackedWeight p(w, 2, 3);
  auto panel = p.panel(0);
  EXPECT_FLOAT_EQ(panel[0 * kP + 0], 1.0f);
  EXPECT_FLOAT_EQ(panel[0 * kP + 1], 4.0f);
  EXPECT_FLOAT_EQ(panel[2 * kP + 0], 3.0f);
  EXPECT_FLOAT_EQ(panel[2 * kP + 1], 6.0f);
}

TEST(Matmul, KnownProduct) {
  // A = [[1,2],[3,4]], B = [[5,6],[7,8]] -> C = [[19,22],[43,50]].
  std::vector<float> a{1, 2, 3, 4}, b{5, 6, 7, 8}, c(4);
  matmul(a, b, c, 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(Matmul, ThrowsOnShortSpans) {
  std::vector<float> a(4), b(4), c(3);
  EXPECT_THROW(matmul(a, b, c, 2, 2, 2), std::invalid_argument);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t({2, 2});
  t.fill(1.0f);
  Tensor u = t.clone();
  u.at(0) = 9.0f;
  EXPECT_FLOAT_EQ(t.at(0), 1.0f);
  EXPECT_EQ(u.shape_str(), "[2, 2]");
}

TEST(Tensor, MaxAbsDiffMismatchThrows) {
  std::vector<float> a(3), b(4);
  EXPECT_THROW(max_abs_diff(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace dsinfer::kernels
