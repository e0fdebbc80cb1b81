#include "replay.h"

#include <algorithm>
#include <memory>

#include "kernels/attention.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "parallel/device_group.h"
#include "parallel/tensor_parallel.h"

namespace servebench {

namespace dc = dsinfer::core;
namespace dk = dsinfer::kernels;
namespace dp = dsinfer::parallel;

namespace {

// Each slot of a shape as (slot, first position, rows), in row order.
struct SlotRun {
  std::int32_t slot;
  std::int64_t first, rows;
};
std::vector<SlotRun> runs_of(const Shape& s) {
  std::vector<SlotRun> out;
  for (std::size_t i = 0; i < s.slots.size(); ++i) {
    if (out.empty() || out.back().slot != s.slots[i]) {
      out.push_back({s.slots[i], s.positions[i], 0});
    }
    ++out.back().rows;
  }
  return out;
}

// Arena with every slot acquired, whose per-slot lengths are set before
// each replayed shape (untimed) with zero K/V rows.
class ReplayArena {
 public:
  ReplayArena(const dc::InferenceEngine& eng, std::int64_t slots,
              std::int64_t heads) {
    const auto& cfg = eng.config();
    const auto& o = eng.options();
    const std::int64_t max_seq = std::min(o.max_seq, cfg.max_seq);
    const std::int64_t pt =
        o.kv_page_tokens > 0 ? std::min(o.kv_page_tokens, max_seq) : max_seq;
    arena_ = dk::KVArena(eng.layer_count(), slots, heads, cfg.head_dim(),
                         max_seq, pt, /*pages=*/0, /*prefix_cache=*/false);
    for (std::int64_t s = 0; s < slots; ++s) arena_.acquire();
    zeros_.assign(static_cast<std::size_t>(max_seq * heads * cfg.head_dim()),
                  0.0f);
  }
  // Every layer of `slot` holds exactly `len` rows.
  void set_len(std::int64_t slot, std::int64_t len) {
    if (arena_.seq_len(slot) > len) arena_.rewind(slot, len);
    for (std::int64_t l = 0; l < arena_.layers(); ++l) {
      const std::int64_t have = arena_.seq_len(l, slot);
      if (have < len) arena_.append(l, slot, zeros_, zeros_, len - have);
    }
  }
  dk::KVArena& get() { return arena_; }

 private:
  dk::KVArena arena_;
  std::vector<float> zeros_;
};

void add_gemm(ReplayResult& r, std::int64_t m, std::int64_t in,
              std::int64_t out, double secs) {
  const double flops = 2.0 * static_cast<double>(m * in * out);
  const double bytes = 4.0 * static_cast<double>(in * out + m * in + m * out);
  if (m <= 8) {
    r.flops_le8 += flops;
    r.bytes_le8 += bytes;
    r.time_le8 += secs;
  } else {
    r.flops_gt8 += flops;
    r.bytes_gt8 += bytes;
    r.time_gt8 += secs;
  }
}

// Picks at most `limit` of the shapes matching `admit`, evenly spread.
std::vector<std::size_t> pick(const std::vector<Shape>& shapes, bool admit,
                              std::int64_t limit) {
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    if (shapes[i].admit == admit && !shapes[i].slots.empty()) all.push_back(i);
  }
  if (static_cast<std::int64_t>(all.size()) <= limit) return all;
  std::vector<std::size_t> out;
  for (std::int64_t k = 0; k < limit; ++k) {
    out.push_back(all[static_cast<std::size_t>(
        k * static_cast<std::int64_t>(all.size()) / limit)]);
  }
  return out;
}

}  // namespace

ReplayResult replay(const dc::InferenceEngine& eng, const Params& p,
                    const std::vector<Shape>& shapes, Tracer& tr,
                    const Clock& clk) {
  ReplayResult res;
  const auto& cfg = eng.config();
  const auto& W = eng.weights();
  const auto& policy = eng.options().policy;
  const std::int64_t H = cfg.hidden, F = cfg.ffn(), V = cfg.vocab;
  const std::int64_t L = eng.layer_count();
  // The parallel and comm layers replay only when the engine is sharded.
  const std::int64_t tp = eng.options().tensor_parallel;
  const bool sbi = policy.gemm == dk::GemmKind::kSbi;

  ReplayArena full(eng, kSlots, cfg.heads);
  std::vector<std::unique_ptr<ReplayArena>> rank_arenas;
  std::vector<std::vector<dp::TpLayerShard>> shards;
  for (std::int64_t r = 0; tp > 1 && r < tp; ++r) {
    rank_arenas.push_back(
        std::make_unique<ReplayArena>(eng, kSlots, cfg.heads / tp));
    auto& per_rank = shards.emplace_back();
    for (const auto& l : W.layers) {
      per_rank.push_back(dp::TpLayerShard::from_full(l, tp, r));
      per_rank.back().prepare(policy);
      if (sbi) {  // the packed panels are all linear_sbi reads
        per_rank.back().w_qkv = dsinfer::Tensor();
        per_rank.back().w_attn_out = dsinfer::Tensor();
        per_rank.back().w_fc1 = dsinfer::Tensor();
        per_rank.back().w_fc2 = dsinfer::Tensor();
      }
    }
  }

  const std::int32_t root = tr.open("replay", -1, -1, clk.now());
  dk::LayerScratch sc;
  std::vector<float> x, q, logits;
  std::vector<std::int32_t> toks;
  dsinfer::Rng rng(kModelSeed);
  std::vector<std::vector<float>> xr(static_cast<std::size_t>(tp));
  std::vector<dp::TpScratch> tps(static_cast<std::size_t>(tp));
  std::vector<std::vector<double>> layer_t(static_cast<std::size_t>(tp));

  auto replay_shape = [&](const Shape& s, std::int64_t id) {
    const auto T = static_cast<std::int64_t>(s.slots.size());
    const auto runs = runs_of(s);
    for (const auto& r : runs) full.set_len(r.slot, r.first + r.rows);
    sc.ensure(T, H, F);
    x.resize(static_cast<std::size_t>(T * H));
    q.assign(static_cast<std::size_t>(T * H), 0.01f);
    toks.assign(static_cast<std::size_t>(T), 1);
    const std::int32_t sp = tr.open(s.admit ? "replay.admit" : "replay.step",
                                    id, root, clk.now());
    double gemm = 0, attn = 0, elem = 0;
    auto timed = [&](const char* name, double& acc, auto&& fn) {
      const double t0 = clk.now();
      fn();
      const double t1 = clk.now();
      acc += t1 - t0;
      tr.add(name, id, sp, t0, t1);
      return t1 - t0;
    };
    auto linear = [&](std::span<const float> in, const dsinfer::Tensor& w,
                      const dk::PackedWeight& pw, std::span<float> out,
                      std::int64_t din, std::int64_t dout) {
      const double secs = timed("kernels.gemm", gemm, [&] {
        if (sbi) {
          dk::linear_sbi(in, pw, {}, out, T);
        } else {
          dk::linear_blocked(in, w.span(), {}, out, T, din, dout);
        }
      });
      add_gemm(res, T, din, dout, secs);
    };

    double embed_sample = 0, lm = 0;
    timed("kernels.embed_sample", embed_sample,
          [&] { W.embed(toks, s.positions, x); });
    for (std::int64_t l = 0; l < L; ++l) {
      const auto& w = W.layers[static_cast<std::size_t>(l)];
      timed("kernels.elementwise", elem, [&] {
        dk::layernorm(x, w.ln1_g.span(), w.ln1_b.span(), sc.normed.span(), T, H);
      });
      linear(sc.normed.span(), w.w_qkv, w.p_qkv, sc.qkv.span(), H, 3 * H);
      const double a = timed("kernels.attention", attn, [&] {
        dk::attention_fused_ragged(q, full.get(), l, s.slots, s.positions,
                                   sc.attn.span());
      });
      res.attention_time += a;
      for (auto pos : s.positions) {
        res.attention_bytes += 4.0 * static_cast<double>(H) *
                               (2.0 * static_cast<double>(pos + 1) + 2.0);
      }
      linear(sc.attn.span(), w.w_attn_out, w.p_attn_out, sc.proj.span(), H, H);
      timed("kernels.elementwise", elem, [&] {
        dk::bias_residual(sc.proj.span(), w.b_attn_out.span(), x, x, T, H);
        dk::layernorm(x, w.ln2_g.span(), w.ln2_b.span(), sc.normed.span(), T, H);
      });
      linear(sc.normed.span(), w.w_fc1, w.p_fc1, sc.ffn1.span(), H, F);
      timed("kernels.elementwise", elem, [&] {
        dk::bias_gelu(sc.ffn1.span(), w.b_fc1.span(), sc.act.span(), T, F);
      });
      linear(sc.act.span(), w.w_fc2, w.p_fc2, sc.ffn2.span(), F, H);
      timed("kernels.elementwise", elem, [&] {
        dk::bias_residual(sc.ffn2.span(), w.b_fc2.span(), x, x, T, H);
      });
    }
    const std::int64_t rows = s.sample_rows;
    if (rows > 0) {
      logits.resize(static_cast<std::size_t>(rows * V));
      timed("kernels.lm_head", lm, [&] {
        W.lm_head(std::span<const float>(x).subspan(0, static_cast<std::size_t>(rows * H)),
                  logits, rows);
      });
      timed("kernels.embed_sample", embed_sample, [&] {
        for (std::int64_t i = 0; i < rows; ++i) {
          dc::sample_token(std::span<const float>(logits).subspan(
                               static_cast<std::size_t>(i * V),
                               static_cast<std::size_t>(V)),
                           dc::SamplingOptions{}, rng);
        }
      });
    }
    double tp_s = 0, comm_s = 0;
    if (tp > 1) {
      // The engine's fused tensor-parallel step: a fresh group per call,
      // every rank running the whole layer stack on its shard.
      for (std::int64_t r = 0; r < tp; ++r) {
        for (const auto& run : runs) {
          rank_arenas[static_cast<std::size_t>(r)]->set_len(run.slot, run.first);
        }
        auto& xs = xr[static_cast<std::size_t>(r)];
        xs.assign(x.begin(), x.end());
        layer_t[static_cast<std::size_t>(r)].clear();
      }
      const double g0 = clk.now();
      const std::int32_t gs = tr.open("parallel.group_run", id, sp, g0);
      {
        dp::DeviceGroup group(tp);
        group.run([&](std::int64_t rank, dsinfer::comm::Communicator& comm) {
          const auto ri = static_cast<std::size_t>(rank);
          for (std::int64_t l = 0; l < L; ++l) {
            const double t0 = clk.now();
            dp::tp_layer_forward_ragged(
                shards[ri][static_cast<std::size_t>(l)],
                rank_arenas[ri]->get(), l, s.slots, s.positions, xr[ri],
                policy, tps[ri], comm, rank);
            layer_t[ri].push_back(t0);
            layer_t[ri].push_back(clk.now());
          }
        });
      }
      const double g1 = clk.now();
      tr.close(gs, g1);
      tp_s = g1 - g0;
      for (std::size_t k = 0; k + 1 < layer_t[0].size(); k += 2) {
        tr.add("parallel.tp_layer", id, gs, layer_t[0][k], layer_t[0][k + 1]);
        res.tp_layer_ms.push_back((layer_t[0][k + 1] - layer_t[0][k]) * 1e3);
      }
      // The step's all-reduces alone: two per layer over rows x hidden.
      for (auto& xs : xr) xs.assign(static_cast<std::size_t>(T * H), 0.5f);
      layer_t[0].clear();
      const double c0 = clk.now();
      const std::int32_t cs = tr.open("comm.group", id, sp, c0);
      {
        dp::DeviceGroup group(tp);
        group.run([&](std::int64_t rank, dsinfer::comm::Communicator& comm) {
          const auto ri = static_cast<std::size_t>(rank);
          for (std::int64_t k = 0; k < 2 * L; ++k) {
            const double t0 = clk.now();
            comm.all_reduce_sum(rank, xr[ri]);
            if (rank == 0) {
              layer_t[0].push_back(t0);
              layer_t[0].push_back(clk.now());
            }
          }
        });
      }
      tr.close(cs, clk.now());
      const double bytes = 4.0 * static_cast<double>(T * H);
      for (std::size_t k = 0; k + 1 < layer_t[0].size(); k += 2) {
        const double d = layer_t[0][k + 1] - layer_t[0][k];
        tr.add("comm.allreduce", id, cs, layer_t[0][k], layer_t[0][k + 1]);
        res.allreduce_us.push_back(d * 1e6);
        res.allreduce_bytes += bytes;
        res.allreduce_s += d;
        comm_s += d;
      }
      if (!s.admit) res.comm_step_bytes += 2.0 * static_cast<double>(L) * bytes;
    }
    tr.close(sp, clk.now());
    if (s.admit) {
      ++res.admits;
      return;
    }
    ++res.steps;
    res.gemm_s += gemm;
    res.attention_s += attn;
    res.elementwise_s += elem;
    res.lm_head_s += lm;
    res.embed_sample_s += embed_sample;
    res.step_wall_s += s.wall_s;
    res.comm_step_s += comm_s;
    const double replayed =
        (tp > 1 ? tp_s : gemm + attn + elem) + lm + embed_sample;
    res.step_self_ms.push_back((s.wall_s - replayed) * 1e3);
  };

  for (auto i : pick(shapes, /*admit=*/true, p.replay_admits)) {
    replay_shape(shapes[i], static_cast<std::int64_t>(i));
  }
  for (auto i : pick(shapes, /*admit=*/false, p.replay_steps)) {
    replay_shape(shapes[i], static_cast<std::int64_t>(i));
  }
  // The per-step spawn cost on its own: a group running an empty body.
  for (int k = 0; tp > 1 && k < 50; ++k) {
    const double t0 = clk.now();
    dp::DeviceGroup group(tp);
    group.run([](std::int64_t, dsinfer::comm::Communicator&) {});
    const double t1 = clk.now();
    tr.add("parallel.group_run_empty", -1, root, t0, t1);
    res.group_run_us.push_back((t1 - t0) * 1e6);
  }
  tr.close(root, clk.now());
  return res;
}

}  // namespace servebench
