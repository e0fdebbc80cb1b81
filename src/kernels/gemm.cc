#include "kernels/gemm.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "kernels/simd.h"
#include "util/thread_pool.h"

namespace dsinfer::kernels {

namespace {

// Minimum FLOPs a parallel_for task should carry before the pool's wakeup
// latency is worth paying; callers translate this into a grain in items.
constexpr std::int64_t kMinTaskFlops = 1 << 16;

std::size_t grain_for(std::int64_t flops_per_item) {
  if (flops_per_item <= 0) return 1;
  return static_cast<std::size_t>(
      std::max<std::int64_t>(1, kMinTaskFlops / flops_per_item));
}

void check_linear_args(std::size_t xs, std::size_t ws, std::size_t bs,
                       std::size_t ys, std::int64_t m, std::int64_t in,
                       std::int64_t out) {
  if (xs < static_cast<std::size_t>(m * in) ||
      ws < static_cast<std::size_t>(out * in) ||
      ys < static_cast<std::size_t>(m * out) ||
      (bs != 0 && bs < static_cast<std::size_t>(out))) {
    throw std::invalid_argument("linear: span too small for given dims");
  }
}

}  // namespace

void linear_ref(std::span<const float> x, std::span<const float> w,
                std::span<const float> bias, std::span<float> y,
                std::int64_t m, std::int64_t in, std::int64_t out) {
  check_linear_args(x.size(), w.size(), bias.size(), y.size(), m, in, out);
  for (std::int64_t r = 0; r < m; ++r) {
    const float* xr = x.data() + r * in;
    float* yr = y.data() + r * out;
    for (std::int64_t o = 0; o < out; ++o) {
      const float* wr = w.data() + o * in;
      yr[o] = (bias.empty() ? 0.0f : bias[o]) + simd::dot(xr, wr, in);
    }
  }
}

void linear_blocked(std::span<const float> x, std::span<const float> w,
                    std::span<const float> bias, std::span<float> y,
                    std::int64_t m, std::int64_t in, std::int64_t out) {
  check_linear_args(x.size(), w.size(), bias.size(), y.size(), m, in, out);
  constexpr std::int64_t kBlockOut = 64;
  constexpr std::int64_t kBlockIn = 256;

  // Initialize with bias, then accumulate block products.
  for (std::int64_t r = 0; r < m; ++r) {
    float* yr = y.data() + r * out;
    if (bias.empty()) {
      std::memset(yr, 0, static_cast<std::size_t>(out) * sizeof(float));
    } else {
      std::memcpy(yr, bias.data(), static_cast<std::size_t>(out) * sizeof(float));
    }
  }

  auto body = [&](std::int64_t o_begin, std::int64_t o_end) {
    for (std::int64_t ib = 0; ib < in; ib += kBlockIn) {
      const std::int64_t ie = std::min(in, ib + kBlockIn);
      for (std::int64_t r = 0; r < m; ++r) {
        const float* xr = x.data() + r * in;
        float* yr = y.data() + r * out;
        for (std::int64_t o = o_begin; o < o_end; ++o) {
          const float* wr = w.data() + o * in;
          yr[o] += simd::dot(xr + ib, wr + ib, ie - ib);
        }
      }
    }
  };

  const std::int64_t tile_flops = 2 * m * kBlockOut * in;
  ThreadPool::global().parallel_for(
      0, static_cast<std::size_t>((out + kBlockOut - 1) / kBlockOut),
      grain_for(tile_flops), [&](std::size_t tb, std::size_t te) {
        for (std::size_t t = tb; t < te; ++t) {
          const std::int64_t o_begin = static_cast<std::int64_t>(t) * kBlockOut;
          const std::int64_t o_end = std::min(out, o_begin + kBlockOut);
          body(o_begin, o_end);
        }
      });
}

PackedWeight::PackedWeight(std::span<const float> w, std::int64_t out,
                           std::int64_t in)
    : out_(out), in_(in) {
  if (w.size() < static_cast<std::size_t>(out * in)) {
    throw std::invalid_argument("PackedWeight: span too small");
  }
  num_panels_ = (out + kPanelOut - 1) / kPanelOut;
  data_.reset(static_cast<std::size_t>(num_panels_ * kPanelOut * in));
  // Interleaved panel layout: for panel p and input index i, the kPanelOut
  // output weights sit contiguously. A linear scan of the panel therefore
  // walks the input dimension once while touching full cache lines.
  for (std::int64_t p = 0; p < num_panels_; ++p) {
    float* panel = data_.data() + p * kPanelOut * in;
    for (std::int64_t i = 0; i < in; ++i) {
      for (std::int64_t j = 0; j < kPanelOut; ++j) {
        const std::int64_t o = p * kPanelOut + j;
        panel[i * kPanelOut + j] = o < out ? w[o * in + i] : 0.0f;
      }
    }
  }
}

std::span<const float> PackedWeight::panel(std::int64_t panel_idx) const {
  return {data_.data() + panel_idx * kPanelOut * in_,
          static_cast<std::size_t>(kPanelOut * in_)};
}

static_assert(PackedWeight::kPanelOut == 16,
              "SBI panels feed simd::fma_tile32: 16 output lanes per input "
              "index is one 64-byte cache line of FP32");

// Floats per row of a simd::fma_tile32 accumulator: two panels.
constexpr std::int64_t kTileLanes = 2 * PackedWeight::kPanelOut;

void linear_sbi(std::span<const float> x, const PackedWeight& w,
                std::span<const float> bias, std::span<float> y,
                std::int64_t m) {
  const std::int64_t in = w.in();
  const std::int64_t out = w.out();
  check_linear_args(x.size(), static_cast<std::size_t>(out * in), bias.size(),
                    y.size(), m, in, out);
  constexpr std::int64_t kP = PackedWeight::kPanelOut;

  // One work item is a pair of panels (the last one alone when the panel
  // count is odd) and all m rows, through one fma_tile32 call: decode at
  // m == 1 streams the pair once with the tile's prefetch, and larger m
  // re-reads it from cache after the first row pass (8 rows on AVX-512, 6
  // on AVX2). Every output is one sequential FMA chain over the input
  // index, so a row's result does not depend on m or on the other rows.
  auto run_item = [&](std::int64_t t, float* acc) {
    const std::int64_t p = 2 * t;
    const bool pair = p + 1 < w.num_panels();
    const std::int64_t o_begin = p * kP;
    const std::int64_t o_count = std::min(kTileLanes, out - o_begin);
    std::fill_n(acc, m * kTileLanes, 0.0f);
    simd::fma_tile32(x.data(), in, m, w.panel(p).data(),
                     pair ? w.panel(p + 1).data() : nullptr, in, acc);
    for (std::int64_t r = 0; r < m; ++r) {
      float* yr = y.data() + r * out + o_begin;
      const float* ar = acc + r * kTileLanes;
      for (std::int64_t j = 0; j < o_count; ++j) {
        yr[j] = ar[j] + (bias.empty() ? 0.0f : bias[o_begin + j]);
      }
    }
  };

  const std::int64_t items = (w.num_panels() + 1) / 2;
  ThreadPool::global().parallel_for(
      0, static_cast<std::size_t>(items), grain_for(2 * m * kTileLanes * in),
      [&](std::size_t tb, std::size_t te) {
        std::vector<float> acc(static_cast<std::size_t>(m * kTileLanes));
        for (std::size_t t = tb; t < te; ++t) {
          run_item(static_cast<std::int64_t>(t), acc.data());
        }
      });
}

void linear_sbi_split(std::span<const float> x, const PackedWeight& w,
                      std::span<const float> bias, std::span<float> y,
                      std::int64_t m, std::int64_t input_splits) {
  const std::int64_t in = w.in();
  const std::int64_t out = w.out();
  check_linear_args(x.size(), static_cast<std::size_t>(out * in), bias.size(),
                    y.size(), m, in, out);
  if (input_splits < 1 || input_splits > in) {
    throw std::invalid_argument("linear_sbi_split: bad input_splits");
  }
  constexpr std::int64_t kP = PackedWeight::kPanelOut;
  const std::int64_t num_panels = w.num_panels();

  // Kernel 1: each (panel, split) pair reduces its input slice into a
  // private partial buffer — (num_panels * input_splits) parallel tiles, each
  // one single-panel fma_tile32 call over all m rows.
  std::vector<float> partials(
      static_cast<std::size_t>(input_splits * m * num_panels * kP), 0.0f);
  const std::int64_t chunk = (in + input_splits - 1) / input_splits;
  ThreadPool::global().parallel_for(
      0, static_cast<std::size_t>(num_panels * input_splits),
      grain_for(2 * m * kP * chunk), [&](std::size_t tb, std::size_t te) {
        std::vector<float> acc(static_cast<std::size_t>(m * kTileLanes));
        for (std::size_t t = tb; t < te; ++t) {
          const std::int64_t p = static_cast<std::int64_t>(t) / input_splits;
          const std::int64_t s = static_cast<std::int64_t>(t) % input_splits;
          const std::int64_t i_begin = s * chunk;
          const std::int64_t i_end = std::min(in, i_begin + chunk);
          if (i_begin >= i_end) continue;
          std::fill(acc.begin(), acc.end(), 0.0f);
          simd::fma_tile32(x.data() + i_begin, in, m,
                           w.panel(p).data() + i_begin * kP, nullptr,
                           i_end - i_begin, acc.data());
          for (std::int64_t r = 0; r < m; ++r) {
            std::memcpy(partials.data() + ((s * m + r) * num_panels + p) * kP,
                        acc.data() + r * kTileLanes,
                        static_cast<std::size_t>(kP) * sizeof(float));
          }
        }
      });

  // Kernel 2: reduce the splits and write the output with the bias.
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t p = 0; p < num_panels; ++p) {
      const std::int64_t o_begin = p * kP;
      const std::int64_t o_count = std::min<std::int64_t>(kP, out - o_begin);
      for (std::int64_t j = 0; j < o_count; ++j) {
        float acc = bias.empty() ? 0.0f : bias[o_begin + j];
        for (std::int64_t s = 0; s < input_splits; ++s) {
          acc += partials[static_cast<std::size_t>(
              ((s * m + r) * num_panels + p) * kP + j)];
        }
        y[static_cast<std::size_t>(r * out + o_begin + j)] = acc;
      }
    }
  }
}

void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::int64_t m, std::int64_t k,
            std::int64_t n) {
  if (a.size() < static_cast<std::size_t>(m * k) ||
      b.size() < static_cast<std::size_t>(k * n) ||
      c.size() < static_cast<std::size_t>(m * n)) {
    throw std::invalid_argument("matmul: span too small");
  }
  std::memset(c.data(), 0, static_cast<std::size_t>(m * n) * sizeof(float));
  // Row-parallel: each output row is an independent sum of scaled B rows
  // (axpy over contiguous memory), so rows shard across the pool with no
  // write sharing; the grain keeps tiny products (decode-time attention
  // scores) inline on the calling thread.
  ThreadPool::global().parallel_for(
      0, static_cast<std::size_t>(m), grain_for(2 * k * n),
      [&](std::size_t rb, std::size_t re) {
        for (std::size_t r = rb; r < re; ++r) {
          float* cr = c.data() + r * n;
          const float* ar = a.data() + r * k;
          for (std::int64_t i = 0; i < k; ++i) {
            simd::axpy(ar[i], b.data() + i * n, cr, n);
          }
        }
      });
}

}  // namespace dsinfer::kernels
