// GeMM family for linear layers: y[m, out] = x[m, in] * W[out, in]^T + bias.
//
// Three implementations reproduce the paper's Sec. III trade-off:
//  * linear_ref      — triple loop; numerical ground truth for tests.
//  * linear_blocked  — cache-blocked, throughput-oriented (the "cuBLAS"
//                      stand-in: efficient at large m, indifferent to small m).
//  * linear_sbi      — SBI-GeMM analog for skinny activations (small m):
//                      output-dimension tiling so each tile streams a
//                      contiguous pre-packed weight panel exactly once
//                      (Sec. III.C tiling + full-cache-line layout), with an
//                      optional split along the input dimension for small
//                      output dims (the paper's two-kernel reduction variant).
#pragma once

#include <cstdint>
#include <span>

#include "util/aligned_buffer.h"

namespace dsinfer::kernels {

// Reference GeMM. W is row-major [out, in]; bias may be empty.
void linear_ref(std::span<const float> x, std::span<const float> w,
                std::span<const float> bias, std::span<float> y,
                std::int64_t m, std::int64_t in, std::int64_t out);

// Cache-blocked GeMM for large batches. Same signature/semantics as
// linear_ref; results are bitwise different only through FP reassociation.
void linear_blocked(std::span<const float> x, std::span<const float> w,
                    std::span<const float> bias, std::span<float> y,
                    std::int64_t m, std::int64_t in, std::int64_t out);

// Pre-packed weight panels for SBI-GeMM. Packing transposes W into panels of
// kPanelOut output rows whose input columns are interleaved so that a
// streaming read touches full cache lines (paper Fig. 1(b)).
class PackedWeight {
 public:
  // Outputs per panel: the 16 FP32 weights of one input index fill one
  // 64-byte cache line, one zmm load on AVX-512 and two ymm halves on AVX2.
  // The last panel is zero-padded when out is not a multiple of 16.
  static constexpr std::int64_t kPanelOut = 16;

  PackedWeight() = default;
  // Packs row-major W[out, in].
  PackedWeight(std::span<const float> w, std::int64_t out, std::int64_t in);

  std::int64_t out() const { return out_; }
  std::int64_t in() const { return in_; }
  bool empty() const { return data_.empty(); }
  std::span<const float> panel(std::int64_t panel_idx) const;
  std::int64_t num_panels() const { return num_panels_; }

 private:
  AlignedBuffer<float> data_;
  std::int64_t out_ = 0;
  std::int64_t in_ = 0;
  std::int64_t num_panels_ = 0;
};

// SBI-GeMM: optimized for small m. Uses PackedWeight panels and
// parallelizes across pairs of output panels via the global thread pool.
// Every m, decode's m == 1 included, runs the same register tile
// (simd::fma_tile32) of up to 8 rows x 32 outputs on AVX-512 and 6 rows x
// 16 outputs on AVX2, streaming each pair of panels once with prefetch.
// Each output is one sequential FMA chain over the input index, so a row's
// result does not depend on the other rows of the call, on m or on the
// ISA's tile shape: a sequence decoded alone gets the same bits as in a
// batch.
void linear_sbi(std::span<const float> x, const PackedWeight& w,
                std::span<const float> bias, std::span<float> y,
                std::int64_t m);

// The paper's two-kernel variant (Sec. III.C.1): when the output dimension
// is too small to fill the machine with output tiles, the input dimension is
// split into `input_splits` partial reductions computed in parallel and then
// summed (the second "kernel"). Numerically a reassociation of linear_sbi.
void linear_sbi_split(std::span<const float> x, const PackedWeight& w,
                      std::span<const float> bias, std::span<float> y,
                      std::int64_t m, std::int64_t input_splits);

// Dispatcher used by the transformer layer: picks SBI for small m when a
// packed weight is available, blocked otherwise.
enum class GemmKind { kReference, kBlocked, kSbi };

// Plain C[m,n] = A[m,k] * B[k,n] (row-major, no transpose); used by
// attention score/context products and by the sparse-einsum MoE baseline.
void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::int64_t m, std::int64_t k,
            std::int64_t n);

}  // namespace dsinfer::kernels
