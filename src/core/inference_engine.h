// Public inference API.
//
// InferenceEngine ties the whole functional stack together: embeddings ->
// N transformer layers (resident, ZeRO-streamed, or tensor-parallel across
// virtual devices) -> LM head -> sampling, with per-layer KV caches driving
// the two-phase (prompt processing / token generation) loop of Sec. IV-B.
//
//   model::DenseModelConfig cfg = model::tiny_gpt();
//   core::EngineOptions opts;
//   core::InferenceEngine engine(cfg, opts, /*seed=*/42);
//   auto result = engine.generate({{10, 11, 12}}, /*new_tokens=*/8);
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config_error.h"
#include "core/gpt_model.h"
#include "kernels/kv_arena.h"
#include "kernels/kv_cache.h"
#include "parallel/tensor_parallel.h"
#include "zero/kv_offload.h"
#include "zero/offload.h"

namespace dsinfer::core {

class EngineSpec;  // core/engine_spec.h — the validated configuration API

// Thin view of an engine configuration (ISSUE 5): build one through
// core::EngineSpec (fluent setters + typed validate()) and pass the spec to
// InferenceEngine. Filling the struct by hand and using the legacy
// constructor still works — that path is a deprecated shim that routes
// through EngineSpec::validate() and throws ConfigException (IS-A
// std::invalid_argument) on the first error.
struct EngineOptions {
  kernels::KernelPolicy policy = kernels::KernelPolicy::optimized_small_batch();
  // >1 shards every layer Megatron-style across virtual devices (threads).
  std::int64_t tensor_parallel = 1;
  // ZeRO-Inference mode: weights live in a host store and stream through a
  // small device window. Mutually exclusive with tensor_parallel > 1.
  bool stream_weights = false;
  std::int64_t stream_window = 2;
  // Stream per-channel INT8 quantized weights instead of FP32 (~4x fewer
  // boundary bytes; the INT8 GeMM consumes the quantized form directly).
  // This is the graceful-degradation fidelity the server falls back to
  // under overload. Requires stream_weights.
  bool stream_int8 = false;
  // Sec. IV-C.2: release every layer's KV cache to host memory between token
  // steps and fetch it back before the next step. Numerically transparent;
  // the transfer ledger (kv_offload_bytes()) exposes the PCIe traffic the
  // perf model prices.
  bool kv_offload = false;
  std::int64_t max_batch = 8;
  std::int64_t max_seq = 128;
  // Paged KV virtualization (ISSUE 7). 0 keeps the contiguous strip layout
  // (one max_seq-sized page per slot, no oversubscription). > 0 breaks each
  // slot's KV into kv_page_tokens-row pages behind a per-slot block table:
  // admission budgets pages for prompt + max_new actual tokens, not
  // worst-case max_seq.
  std::int64_t kv_page_tokens = 0;
  // Page-pool size when paging (0 = fully provisioned: every slot can reach
  // max_seq). Smaller pools oversubscribe; admission keeps the pool safe.
  std::int64_t kv_pages = 0;
  // Copy-on-write shared-prefix cache across slots (requires paging):
  // identical prompt prefixes dedup onto refcounted shared page chains,
  // prefill runs only the unmatched suffix.
  bool kv_prefix_cache = false;
  // Chunked prefill (ISSUE 9). 0 runs the whole prompt suffix inside
  // admit() (monolithic — the legacy behavior). > 0 bounds the prompt
  // tokens any single fused iteration may prefill: admit() runs only the
  // first chunk, and each subsequent step() advances at most this many
  // prompt rows TOTAL across all mid-prefill slots (one global budget,
  // slot order, first-come), interleaved with the one-token decode rows of
  // the other live slots in the same ragged step — so the per-iteration
  // prefill work stays bounded no matter how many long prompts are in
  // flight. Greedy token streams stay bit-identical to monolithic prefill
  // (per-row reduction order is independent of co-batched row count).
  std::int64_t prefill_chunk_tokens = 0;
  // Speculative multi-token decode (ISSUE 10, configured through
  // core::SpecDecodeSpec). spec_draft_tokens is the verify window: the query
  // rows each decode-ready slot contributes to one fused ragged step (the
  // sampled-but-unfed token plus spec_draft_tokens - 1 draft proposals).
  // 1 == speculation off, the exact non-speculative path. Exact-match greedy
  // acceptance keeps accepted prefixes bit-identical to the non-speculative
  // stream; rejected-suffix KV rows rewind through the page-granular rewind
  // machinery. Requires resident weights (no stream_weights), the continuous
  // scheduler, and greedy sampling.
  std::int64_t spec_draft_tokens = 1;
  // Layers in the draft lane, sharing the target checkpoint's first N
  // resident layers (0 = half the target's layers, minimum 1). The virtual
  // clock prices the draft lane by this fraction of a target decode pass.
  std::int64_t spec_draft_layers = 0;
  // Run the draft lane on INT8-prepared copies of its layers (half the
  // virtual draft cost, same exact-match safety: a bad proposal just
  // rejects).
  bool spec_draft_int8 = false;
  // Acceptance-rate sim knob for the modeled speedup curves: in [0, 1] the
  // decoder swaps the configured draft for a full-depth oracle twin and
  // deterministically corrupts its proposals so the realized tokens-per-step
  // averages exactly the geometric model 1 + a + ... + a^(k-1) at this
  // per-position rate (the DES twin mirrors the same accumulator), while
  // virtual pricing keeps charging the *configured* draft lane. -1 (default)
  // runs the real configured draft and measures whatever acceptance it
  // earns.
  double spec_acceptance = -1.0;
  // Chaos hooks (ISSUE 1). When set, streamed weight reads draw from the
  // injector's "zero.stream" site; corrupted reads are retried (with
  // checksum verification) up to stream_max_retries before a StreamFault.
  util::FaultInjector* fault_injector = nullptr;
  std::int64_t stream_max_retries = 3;
};

// Invoked as each token is sampled: (sequence index, step index, token).
// With tensor parallelism the callback fires on rank 0's replica only.
using TokenCallback =
    std::function<void(std::int64_t, std::int64_t, std::int32_t)>;

struct GenerationResult {
  // tokens[i] = prompt i followed by the generated continuation; sequences
  // that emitted the stop token are truncated at it (inclusive).
  std::vector<std::vector<std::int32_t>> tokens;
  std::vector<bool> stopped;   // per sequence: hit the stop token early
  std::int64_t generated = 0;  // total new tokens across the batch
  double seconds = 0;          // wall-clock for the whole call
  double prompt_seconds = 0;   // time to first token (prompt phase)
};

class InferenceEngine {
 public:
  // Builds a randomly initialized model (this reproduction has no trained
  // checkpoints; all evaluation is performance- and correctness-oriented)
  // from a validated spec. Throws ConfigException if spec.validate() is
  // non-empty.
  explicit InferenceEngine(const EngineSpec& spec, std::uint64_t seed = 0x5eed);

  // Deprecated shim: prefer InferenceEngine(EngineSpec). Routes through
  // EngineSpec::validate() and throws ConfigException (a
  // std::invalid_argument) on the first violated constraint.
  InferenceEngine(const model::DenseModelConfig& cfg, EngineOptions opts,
                  std::uint64_t seed = 0x5eed);

  const model::DenseModelConfig& config() const { return weights_.config; }
  const EngineOptions& options() const { return opts_; }
  const GptWeights& weights() const { return weights_; }

  // Generates `new_tokens` tokens for each prompt (greedy by default).
  // All prompts must be non-empty and equally long (callers pad upstream);
  // batch and total length must respect the engine limits.
  GenerationResult generate(
      const std::vector<std::vector<std::int32_t>>& prompts,
      std::int64_t new_tokens, const SamplingOptions& sampling = {},
      const TokenCallback& on_token = {});

  // Runs a single forward pass over equally long prompts and writes the
  // final-position logits [batch, vocab]. Exposed for tests and perplexity
  // style evaluation.
  void forward_logits(const std::vector<std::vector<std::int32_t>>& prompts,
                      std::span<float> logits);

  // Bytes the streamer moved so far (0 when not streaming).
  std::size_t streamed_bytes() const;
  // Streaming resilience ledger (nullptr when not streaming).
  const zero::LayerStreamer* streamer() const { return streamer_.get(); }
  // Bytes of KV state round-tripped to host memory (0 unless kv_offload).
  std::size_t kv_offload_bytes() const { return kv_offload_bytes_; }

  // Transformer layer count (resident or streamed).
  std::int64_t layer_count() const;

 private:
  friend class RaggedDecoder;

  // Shared constructor body: builds weights and the execution substrate.
  // Callers have already validated opts_.
  void init(const model::DenseModelConfig& cfg, std::uint64_t seed);

  struct Plan {
    std::int64_t batch = 0;
    std::int64_t prompt_len = 0;
  };
  Plan validate(const std::vector<std::vector<std::int32_t>>& prompts) const;

  // Runs `q_len` new positions through every layer; x is [batch*q_len, H].
  void run_layers(std::span<float> x, std::int64_t batch, std::int64_t q_len,
                  std::vector<kernels::KVCache>& caches);

  // Ragged block through every layer (continuous batching); x is
  // [tokens, H] with per-token arena slot and absolute position.
  void run_layers_ragged(std::span<float> x,
                         std::span<const std::int32_t> slots,
                         std::span<const std::int32_t> positions,
                         kernels::KVArena& arena);

  // Tensor-parallel ragged block (ISSUE 5): one fused step across every
  // rank, with arenas[r] holding rank r's head-slice shard. Spawns a fresh
  // DeviceGroup per call — a Communicator is poisoned forever after a
  // CommFault, so per-call groups are what make retry-after-fault possible.
  // On return x (rank 0's replica) holds the updated activations; xr and
  // scratches are caller-owned per-rank working storage, reused across
  // calls.
  void run_layers_ragged_tp(std::span<float> x,
                            std::span<const std::int32_t> slots,
                            std::span<const std::int32_t> positions,
                            std::vector<kernels::KVArena>& arenas,
                            std::vector<float>& xr,
                            std::vector<parallel::TpScratch>& scratches);

  EngineOptions opts_;
  GptWeights weights_;
  Rng sample_rng_;

  // Streaming substrate (stream_weights mode).
  std::unique_ptr<zero::HostWeightStore> store_;
  std::unique_ptr<zero::LayerStreamer> streamer_;

  // Tensor-parallel substrate: shards_[rank][layer].
  std::vector<std::vector<parallel::TpLayerShard>> shards_;

  std::size_t kv_offload_bytes_ = 0;
};

// Iteration-level decoding front-end over a shared KV arena (ISSUE 4): the
// substrate of continuous batching. Each sequence occupies one arena slot
// from admit() until retire(); step() advances every live sequence by one
// token, so sequences of different prompt lengths, ages, and budgets decode
// in the same engine iteration and retire the moment they hit their stop
// token or budget — no batch-wide max_new, no padding.
//
// Greedy token streams are bit-identical to InferenceEngine::generate on the
// same weights (the ragged kernels preserve per-token reduction order).
// Supported on the single-device resident, ZeRO-streamed, tensor-parallel,
// and kv_offload paths (ISSUE 5): with tensor_parallel > 1 the decoder keeps
// one head-slice arena shard per virtual rank and drives the rank group in
// lockstep — one decode iteration is one fused step across ranks, with slot
// lifecycle (admit/retire/fault-rewind) decided once and applied to every
// shard; with kv_offload each rank round-trips its slots' KV strips through
// the zero::ArenaOffloadLedger between iterations.
class RaggedDecoder {
 public:
  // Feature probe (ISSUE 5 api_redesign): benches and the server ask
  // whether a configuration is serveable on the ragged path instead of
  // catch-and-fallback. ok == false carries the first typed reason.
  struct Capabilities {
    bool ok = true;
    ConfigError reason{};  // meaningful only when !ok
    explicit operator bool() const { return ok; }

    // Probes an already-constructed engine's options at `slots` arena slots.
    static Capabilities supports(const EngineOptions& opts,
                                 std::int64_t slots = 1);
    // Full probe including the sampling mode (ISSUE 10): speculative decode
    // (spec_draft_tokens > 1) is an exact-match greedy identity, so it is
    // gated — not ad-hoc-thrown — against non-greedy sampling here. The
    // 2-arg overload probes with default (greedy) sampling.
    static Capabilities supports(const EngineOptions& opts, std::int64_t slots,
                                 const SamplingOptions& sampling);
    // Probes a spec before any engine exists (defined with EngineSpec in
    // core/engine_spec.cc).
    static Capabilities supports(const EngineSpec& spec,
                                 std::int64_t slots = 1);
  };

  // `slots` bounds concurrent sequences; `max_seq` per slot follows the
  // engine's limits. Sampling applies to every sequence. Throws
  // ConfigException when !Capabilities::supports(engine.options(), slots)
  // (the legacy throw path, preserved through the shim).
  RaggedDecoder(InferenceEngine& engine, std::int64_t slots,
                const SamplingOptions& sampling = {},
                std::uint64_t seed = 0x5eed);

  std::int64_t capacity() const { return slots_; }
  std::int64_t free_slots() const { return arenas_[0].free_slots(); }
  std::int64_t active() const { return arenas_[0].active_slots(); }
  // Lifetime admissions (slot churn).
  std::int64_t total_admitted() const { return arenas_[0].total_acquires(); }

  // Structural fit (ISSUE 7): can this request EVER run here — within
  // max_seq and, when paged, within the whole page pool? A false here is a
  // permanent rejection, not backpressure.
  bool fits(std::int64_t prompt_tokens, std::int64_t max_new) const;
  // Page-budget admission: a free slot exists AND the pool can commit this
  // request's worst-case private-page demand for prompt + max_new *actual*
  // tokens (discounted by resident shared-prefix pages), on top of every
  // live slot's outstanding commitment. Guarantees decode never runs out of
  // pages. Strip mode degenerates to free_slots() > 0.
  bool can_admit(std::span<const std::int32_t> prompt,
                 std::int64_t max_new) const;
  // Outstanding worst-case page commitment across live slots (paged mode).
  std::int64_t committed_pages() const { return committed_pages_; }

  // Prefix-cache signals (rank 0's shard; shards agree by construction).
  std::int64_t prefix_hits() const { return arenas_[0].prefix_hits(); }
  std::int64_t prefix_hit_tokens() const {
    return arenas_[0].prefix_hit_tokens();
  }
  // Lifetime prompt tokens across admissions — the hit-rate denominator.
  std::int64_t prompt_tokens() const { return prompt_tokens_; }
  // Lifetime suffix tokens committed for prefill at admission (the part of
  // each prompt past its prefix-cache match). Counted at the same commit
  // point as prompt_tokens() and the arena's prefix_hit_tokens(), so the
  // accounting identity
  //     prompt_tokens() == prefix_hit_tokens() + suffix_prefill_tokens()
  // holds exactly, including across faulted-and-retried admissions (ISSUE 9
  // metric audit: matched tokens are never charged as prefill work twice).
  std::int64_t suffix_prefill_tokens() const { return suffix_tokens_; }
  // Cache-contents probe for fleet prefix-affinity routing.
  std::int64_t cached_prefix_tokens(
      std::span<const std::int32_t> prompt) const {
    return arenas_[0].cached_prefix_tokens(prompt);
  }
  // Read-only probe of how many of `prompt`'s tokens are covered by resident
  // shared-prefix pages right now — the admission estimator's discount
  // (resident tokens won't be prefilled). 0 when the cache is off.
  std::int64_t resident_prefix_tokens(
      std::span<const std::int32_t> prompt) const {
    return arenas_[0].probe_prefix(prompt).tokens;
  }

  // Chunked-prefill progress (ISSUE 9). prefill_remaining(slot) is the
  // count of prompt tokens not yet run through the layers; > 0 means the
  // slot is mid-prefill (it has no sampled token yet and contributes prompt
  // rows, not a decode row, to the next step()).
  std::int64_t prefill_remaining(std::int64_t slot) const {
    const Seq& s = checked(slot);
    return s.prompt_len - s.prefill_pos;
  }
  // Row counts of the most recent admit()/step() call — the virtual-clock
  // schedulers price prefill per chunk (prefill rows actually run this
  // iteration), not per admission, off these. With speculation decode rows
  // are *verify* rows: each spec-active slot contributes up to
  // spec_draft_tokens of them per step.
  std::int64_t last_step_prefill_rows() const { return last_prefill_rows_; }
  std::int64_t last_step_decode_rows() const { return last_decode_rows_; }

  // Speculative-decode ledger (ISSUE 10). Lifetime counts across steps:
  // draft tokens proposed, proposals accepted by exact-match verification,
  // and KV rows rolled back (rejected proposals plus draft-lane rewinds are
  // *not* counted here — rollback_tokens is the target-lane figure the
  // spec.* metrics publish: verify rows written then rewound).
  std::int64_t spec_proposed_tokens() const { return spec_proposed_; }
  std::int64_t spec_accepted_tokens() const { return spec_accepted_; }
  std::int64_t spec_rollback_tokens() const { return spec_rollback_; }
  // Realized per-position acceptance rate (0 when nothing proposed yet).
  double spec_acceptance_rate() const {
    return spec_proposed_ > 0 ? static_cast<double>(spec_accepted_) /
                                    static_cast<double>(spec_proposed_)
                              : 0.0;
  }
  // Tokens appended by the most recent step() (accepted + bonus per slot;
  // equals the advanced-slot count when speculation is off).
  std::int64_t last_step_spec_tokens() const { return last_spec_tokens_; }

  // Speculation inputs of the virtual clock, read by core::IterationCost.
  //
  // spec_draft_cost_factor: the draft lane's cost per fused step in units of
  // one target decode pass — (k-1) proposal passes through
  // eff_draft_layers/layer_count of the stack, halved when the draft is
  // INT8. 0 when speculation is off. Verify rows ride the bandwidth-bound
  // GeMM for free (the paper's deep-fusion argument applied across time
  // steps), so a fused step costs whichever lane is longer.
  static double spec_draft_cost_factor(const EngineOptions& opts,
                                       std::int64_t layer_count);
  // Expected tokens retired per fused step at the configured acceptance
  // knob: 1 + a + a^2 + ... + a^(k-1) (the accepted prefix is geometric,
  // plus the always-appended bonus token). 1 when speculation is off or the
  // knob is the -1 "measure" sentinel.
  static double spec_step_tokens(const EngineOptions& opts);

  // Prefill: reserves the slot's full page commitment and runs the prompt
  // suffix through the model — all of it when prefill_chunk_tokens == 0
  // (sampling the first token before returning), otherwise only the first
  // chunk (the slot returns mid-prefill; step() advances the cursor and
  // samples the first token when the final prompt row runs). Returns the
  // slot id, or -1 when no slot is free. The sequence may already be
  // finished on return (max_new == 1 or immediate stop) — check finished()
  // before waiting on step().
  std::int64_t admit(const std::vector<std::int32_t>& prompt,
                     std::int64_t max_new);

  // One fused iteration over every live slot: mid-prefill slots share a
  // global budget of up to prefill_chunk_tokens prompt rows (slot order),
  // every other unfinished slot contributes one decode row, all in the same
  // ragged step. Returns how many sequences advanced (0 = nothing to do).
  std::int64_t step();

  bool finished(std::int64_t slot) const;  // stopped or budget exhausted
  bool stopped(std::int64_t slot) const;   // emitted the stop token
  std::int64_t generated(std::int64_t slot) const;
  // Prompt + generated tokens. Read before retire(); the slot's state is
  // recycled on reuse.
  const std::vector<std::int32_t>& tokens(std::int64_t slot) const;
  void retire(std::int64_t slot);

  // Rank 0's arena shard (the full arena at tensor_parallel == 1). Slot
  // lifecycle and lengths agree across shards by construction.
  const kernels::KVArena& arena() const { return arenas_[0]; }
  // Any rank's shard — mirroring checks (free lists, block tables,
  // fingerprints) at tensor_parallel > 1.
  const kernels::KVArena& arena(std::int64_t rank) const {
    return arenas_[static_cast<std::size_t>(rank)];
  }
  std::int64_t rank_count() const {
    return static_cast<std::int64_t>(arenas_.size());
  }
  // Per-rank PCIe bytes moved by the ragged offload path (kv_offload only).
  std::size_t offload_bytes(std::int64_t rank) const;

 private:
  struct Seq {
    std::vector<std::int32_t> tokens;
    std::int64_t prompt_len = 0;
    std::int64_t max_new = 0;
    std::int64_t generated = 0;
    // Prefill cursor (ISSUE 9): prompt tokens already resident in the KV
    // arena (prefix-cache match + chunks run so far). == prompt_len once
    // prefill is complete; advanced only after a fused step succeeds, so a
    // faulted step rewinds to a consistent cursor for free.
    std::int64_t prefill_pos = 0;
    std::int32_t next_tok = 0;  // sampled, not yet fed through the layers
    bool stopped = false;
  };
  const Seq& checked(std::int64_t slot) const;
  std::int32_t sample_row(std::span<const float> logits_row);
  // Lockstep publish of the slot's completed prompt pages into the shared
  // prefix cache, dropping published pages from the slot's private
  // commitment. Called after every successful prefill chunk — publish_prefix
  // only ever publishes fully written pages, so a chunk boundary landing
  // mid-page defers that page to the chunk that completes it.
  void publish_chunk(std::int64_t slot, std::span<const std::int32_t> prompt);
  // Applies one lifecycle op to every rank's shard (lockstep).
  std::int64_t acquire_all();
  void release_all(std::int64_t slot);
  void rewind_all(std::int64_t slot, std::int64_t len);
  // Runs the live tokens through the layer stack on the configured
  // substrate (single device or the TP rank group).
  void run_ragged(std::span<const std::int32_t> slots,
                  std::span<const std::int32_t> positions);
  // Host round-trip of every live slot's KV strips, per rank (kv_offload).
  void offload_cycle();
  // Bridges arena spill events (prefix-cache LRU eviction / re-fetch) to the
  // offload ledger and obs metrics.
  void on_spill(std::int64_t rank, std::size_t out, std::size_t in);
  // Publishes kv.* gauges/counters (pages in use, prefix hits, CoW splits)
  // after admissions and steps; delta-tracked so multiple decoders share the
  // registry counters.
  void publish_kv_metrics();
  // Speculative draft pass (ISSUE 10): for every slot in spec_slots_, runs
  // the draft lane forward to propose spec_k_eff_[i] - 1 tokens into
  // prop_toks_ (flat, prop_begin_[i] indexing). Stage 1 is one ragged step
  // that also catches the draft KV up to the target (lazy — a slot's draft
  // history is rebuilt from scratch after admission or a deep rewind);
  // stages 2..k-1 chain one row per still-proposing slot. Draft-lane only:
  // never touches the target arenas and never faults (resident, no comm).
  void propose_drafts();
  // Effective verify-window for a decode-ready slot this step: at least 2
  // in the spec path (slots that can only take 1 more token fall back to
  // the plain decode row).
  std::int64_t spec_k_eff(const Seq& s) const;

  InferenceEngine& eng_;
  std::int64_t slots_ = 0;
  SamplingOptions sampling_;
  Rng rng_;
  std::vector<kernels::KVArena> arenas_;  // one shard per virtual TP rank
  std::vector<Seq> seqs_;
  // Page-budget admission state (ISSUE 7): per-slot worst-case private-page
  // commitment and its running sum (see can_admit()).
  std::vector<std::int64_t> commit_;
  std::int64_t committed_pages_ = 0;
  std::int64_t prompt_tokens_ = 0;
  std::int64_t suffix_tokens_ = 0;  // see suffix_prefill_tokens()
  // Prefill/decode row counts of the most recent admit()/step().
  std::int64_t last_prefill_rows_ = 0;
  std::int64_t last_decode_rows_ = 0;
  // Last-published arena counter values (publish_kv_metrics deltas).
  std::int64_t pub_hits_ = 0, pub_hit_tokens_ = 0, pub_cow_ = 0,
               pub_prompt_tokens_ = 0;
  std::unique_ptr<zero::ArenaOffloadLedger> offload_;  // kv_offload only
  // Reused per-call buffers: the decode loop is allocation-free at steady
  // state.
  std::vector<float> x_;
  std::vector<float> xr_;  // ranks >= 1 activation replicas (TP only)
  std::vector<parallel::TpScratch> scratches_;
  std::vector<float> logits_;
  std::vector<std::int32_t> toks_, poss_, slot_ids_;
  // Mixed prefill+decode step() working state (ISSUE 9): participating
  // slots with their pre-step arena lengths (fault rewind is one rewind per
  // slot, not per row), the prefill rows each ran this iteration (0 for
  // decode rows; drives exact cursor advance under the global chunk
  // budget), and the rows whose logits feed sampling (each decode row plus
  // the final prompt row of any slot completing prefill).
  std::vector<std::int32_t> step_slots_, sample_slots_;
  std::vector<std::int64_t> step_pre_len_, step_prefill_rows_, sample_row_idx_;
  std::vector<float> last_;  // gathered sample-row activations

  // ---- Speculative decode lane (ISSUE 10) ----
  std::int64_t spec_k_ = 1;      // opts.spec_draft_tokens (1 = off)
  double spec_acceptance_ = -1;  // opts.spec_acceptance sim knob
  // Draft layers: copies of the target's first N resident layers, re-prepared
  // under draft_policy_ (optionally INT8). In knob mode (spec_acceptance_ in
  // [0,1]) the draft is instead a full-depth FP32 oracle twin — proposals
  // match target greedy exactly, then get deterministically corrupted to hit
  // the knob rate — while pricing keeps charging the configured lane.
  std::vector<kernels::LayerWeights> draft_layers_;
  kernels::KernelPolicy draft_policy_;
  // Single-rank full-width draft KV (strip layout; the draft lane never
  // pages or shards — it is private scratch, not serving state).
  std::unique_ptr<kernels::KVArena> draft_arena_;
  std::vector<std::int64_t> draft_len_;  // draft KV rows resident per slot
  // Per-slot Bresenham accumulator for the acceptance knob: each spec step
  // adds the geometric expected accepted count E = a + a^2 + ... +
  // a^(k_eff-1) and takes the integer part as that step's accepted-prefix
  // length, so the realized advance averages exactly spec_step_tokens() and
  // the fleet_sim DES twin — which runs the identical arithmetic — agrees
  // double-for-double (a per-draw stream would bias the leading proposal of
  // every step toward the stream's reject phase).
  std::vector<double> accept_acc_;
  // This step's knob-decided accepted-prefix length per spec slot
  // (proposals past it get corrupted; recomputed every propose pass).
  std::vector<std::int64_t> spec_keep_;
  // Per-step spec working state (reused; allocation-free at steady state).
  std::vector<std::int32_t> spec_slots_;   // spec-active slots this step
  std::vector<std::int64_t> spec_row0_;    // first verify-row index per slot
  std::vector<std::int64_t> spec_k_eff_;   // verify rows per slot
  std::vector<std::int32_t> prop_toks_;    // flat proposals, k_eff-1 per slot
  std::vector<std::int64_t> prop_begin_;   // per-slot offset into prop_toks_
  std::vector<std::int64_t> step_draft_pre_len_;  // CommFault draft rewind
  std::vector<double> step_acc_pre_;              // CommFault knob rewind
  // Draft-lane reused buffers.
  std::vector<float> dx_, dlast_, dlogits_;
  std::vector<std::int32_t> dtoks_, dposs_, dslot_ids_;
  // Lifetime spec ledger + last-step figure (see accessors).
  std::int64_t spec_proposed_ = 0, spec_accepted_ = 0, spec_rollback_ = 0;
  std::int64_t last_spec_tokens_ = 0;
  // Last-published spec counter values (publish_kv_metrics deltas).
  std::int64_t pub_spec_prop_ = 0, pub_spec_acc_ = 0, pub_spec_rb_ = 0;
};

// Byte-level token helpers for the examples (vocab must be >= 256).
std::vector<std::int32_t> byte_tokenize(const std::string& text);
std::string byte_detokenize(std::span<const std::int32_t> tokens);

}  // namespace dsinfer::core
