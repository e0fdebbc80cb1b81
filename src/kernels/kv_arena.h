// Paged key/value storage shared by the sequences of a continuous batch
// (ISSUE 4 slots, ISSUE 7 paging). Where KVCache stores one rigid
// [batch, heads, max_seq, head_dim] block, the arena holds `slots`
// independent per-sequence sequences, each backed by a chain of fixed-size
// pages through a per-slot block table:
//
//   slot ──table_[slot]──▶ [page, page, page, ...]        (one chain,
//                             │                            all layers)
//   page ──────────────▶ [layer][head][page_tokens, head_dim]
//
// acquire() reserves nothing but the slot id; append() faults pages in on
// demand, so admission capacity is a function of tokens actually written,
// not worst-case max_seq. Within a page, each (layer, head) owns a
// contiguous [page_tokens, head_dim] strip — the same stream-once-per-token
// pattern attention reads, now gathered page by page.
//
// On top of paging sits a refcounted, hash-consed copy-on-write prefix
// cache: full prompt pages are published under the FNV-1a chain hash of all
// tokens they cover (equal keys imply equal *full* preceding context, hence
// bit-identical K/V), matched by later admissions (including a partial match
// of the leading rows of a published page), CoW-split on the first divergent
// append, and LRU-evicted to a host tier of at most `pages` entries (spill
// bytes reported through set_spill_sink, accounted by
// zero::ArenaOffloadLedger; past the cap the coldest host entry is dropped).
//
// The 5-argument constructor degenerates to the pre-paging behavior exactly
// (page_tokens == max_seq, pages == slots, cache off): one page per slot,
// append never runs out of pages, and keys()/values() stay contiguous.
//
// Determinism: every allocation, match, split, and eviction decision is a
// pure function of token ids and call order — never of addresses — so
// tensor-parallel head-slice shards driven with the same calls keep mirrored
// free lists and block tables by construction (the PR 5 slot argument,
// extended to pages).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/aligned_buffer.h"

namespace dsinfer::kernels {

class KVArena {
 public:
  KVArena() = default;
  // Strip-compatible: one max_seq-sized page per slot, prefix cache off.
  KVArena(std::int64_t layers, std::int64_t slots, std::int64_t heads,
          std::int64_t head_dim, std::int64_t max_seq);
  // Paged: `page_tokens` rows per page per (layer, head); `pages` in the
  // pool (0 = enough for every slot at max_seq, i.e. no oversubscription);
  // `prefix_cache` enables cross-slot prompt dedup.
  KVArena(std::int64_t layers, std::int64_t slots, std::int64_t heads,
          std::int64_t head_dim, std::int64_t max_seq,
          std::int64_t page_tokens, std::int64_t pages, bool prefix_cache);

  // Slot lifecycle. acquire() returns -1 when every slot is in use; release
  // drops the slot's page references (shared pages survive for the prefix
  // cache) and makes the slot reusable (LIFO, cache-warm).
  std::int64_t acquire();
  void release(std::int64_t slot);
  bool in_use(std::int64_t slot) const;

  std::int64_t layers() const { return layers_; }
  std::int64_t slots() const { return slots_; }
  std::int64_t heads() const { return heads_; }
  std::int64_t head_dim() const { return head_dim_; }
  std::int64_t max_seq() const { return max_seq_; }
  std::int64_t free_slots() const {
    return static_cast<std::int64_t>(free_.size());
  }
  std::int64_t active_slots() const { return slots_ - free_slots(); }
  // Lifetime acquire count — the slot-churn signal obs exports.
  std::int64_t total_acquires() const { return total_acquires_; }

  // Paging geometry and occupancy.
  bool paged() const { return page_tokens_ < max_seq_; }
  bool prefix_cache_enabled() const { return prefix_cache_; }
  std::int64_t page_tokens() const { return page_tokens_; }
  std::int64_t total_pages() const { return pages_; }
  std::int64_t free_pages() const {
    return static_cast<std::int64_t>(page_free_.size());
  }
  std::int64_t pages_in_use() const { return pages_ - free_pages(); }
  // Pages held only by the prefix cache (refcount 1, resident): reclaimable
  // by LRU eviction, so admission may count them as available.
  std::int64_t evictable_pages() const;
  std::int64_t pages_needed(std::int64_t tokens) const {
    return tokens <= 0 ? 0 : (tokens + page_tokens_ - 1) / page_tokens_;
  }
  // The slot's block table (page ids, chain order) — mirroring checks.
  std::span<const std::int32_t> slot_pages(std::int64_t slot) const;
  std::int32_t page_refcount(std::int32_t page) const;

  // Cached positions of `slot` at `layer`. Layers advance one by one inside
  // an engine iteration; between iterations every layer agrees, and the
  // layer-0 value is that common logical sequence length.
  std::int64_t seq_len(std::int64_t layer, std::int64_t slot) const;
  std::int64_t seq_len(std::int64_t slot) const { return seq_len(0, slot); }

  // Appends `tokens` new positions to `slot` at `layer`. k/v are laid out
  // [tokens, heads * head_dim] (projection output order, matching
  // KVCache::append for batch = 1). Faults missing pages in (LRU-evicting
  // cold prefix pages when the pool is empty) and CoW-splits shared pages
  // before the first divergent write. Throws std::length_error past max_seq
  // ("exceeds max_seq") or when the pool is exhausted ("out of pages").
  void append(std::int64_t layer, std::int64_t slot, std::span<const float> k,
              std::span<const float> v, std::int64_t tokens);

  // Rolls `slot` back to at most `len` cached positions at every layer —
  // restores a consistent cross-layer state after a fault interrupts an
  // iteration mid-stack (layers past the fault simply never advanced).
  // Pages past the surviving length return to the pool.
  void rewind(std::int64_t slot, std::int64_t len);

  // ---- Prefix cache (no-ops returning 0 unless enabled) ----

  // Matches the longest published prefix of `prompt` into fresh `slot`
  // (which must have length 0): shares full published pages, then at most
  // the leading rows of one published child page (the partial match that
  // CoW protects). At least one prompt token is always left for the caller
  // to prefill (the logits row). Sets every layer's length to the matched
  // count and returns it.
  std::int64_t match_prefix(std::int64_t slot,
                            std::span<const std::int32_t> prompt);
  // Publishes `slot`'s fully-written prompt pages (chunks covered by both
  // the slot history and `prompt`) under their chain hashes. Returns how
  // many new pages were published.
  std::int64_t publish_prefix(std::int64_t slot,
                              std::span<const std::int32_t> prompt);
  // Read-only probe: how many leading tokens of `prompt` the cache could
  // serve (resident or evicted-to-host). Fleet routing consults this —
  // cache *contents*, not a hash — without touching LRU state.
  std::int64_t cached_prefix_tokens(std::span<const std::int32_t> prompt) const;

  // Admission-budget probe (read-only, no LRU touch): the *resident* full
  // prefix pages a match_prefix would share, and how many of those are
  // currently unheld (refcount 1 — the match converts an evictable page into
  // a held one). A slot never writes its fully-matched pages (its appends
  // start past them), so its private-page demand is exactly
  // pages_needed(budget) - full_pages_resident; RaggedDecoder::can_admit
  // budgets that plus `new_holds` against the pool.
  struct PrefixProbe {
    std::int64_t tokens = 0;               // resident full-page match length
    std::int64_t full_pages_resident = 0;  // shared pages already in the pool
    std::int64_t new_holds = 0;            // evictable -> held conversions
  };
  PrefixProbe probe_prefix(std::span<const std::int32_t> prompt) const;
  // Pages owned by the cache AND referenced by at least one live chain
  // (refcount >= 2): pinned — not evictable, and excluded from every
  // holder's private-page budget.
  std::int64_t shared_held_pages() const;

  // Host-tier spill accounting: sink(bytes_out, bytes_in) fires on every
  // LRU eviction (out) and re-fetch (in). The arena itself stays
  // obs-agnostic; RaggedDecoder bridges this to metrics and the offload
  // ledger.
  void set_spill_sink(std::function<void(std::size_t, std::size_t)> sink) {
    spill_sink_ = std::move(sink);
  }

  std::int64_t prefix_lookups() const { return prefix_lookups_; }
  std::int64_t prefix_hits() const { return prefix_hits_; }
  std::int64_t prefix_hit_tokens() const { return prefix_hit_tokens_; }
  std::int64_t cow_splits() const { return cow_splits_; }
  std::int64_t evictions() const { return evictions_; }
  // Evicted prefix pages currently held in the host tier. Capped at
  // total_pages(): a spill past the cap drops the coldest host-tier entry
  // (the same (last_use, key) order eviction uses), forgetting its prefix
  // and every cached page that extends it.
  std::int64_t host_pages() const { return host_pages_; }
  std::int64_t refetches() const { return refetches_; }
  std::size_t spill_bytes_out() const { return spill_bytes_out_; }
  std::size_t spill_bytes_in() const { return spill_bytes_in_; }

  // Contiguous [seq_len, head_dim] history for one (layer, slot, head):
  // valid while the chain fits one page (always true in strip mode); throws
  // std::logic_error on a multi-page chain — attention gathers through the
  // block table instead.
  std::span<const float> keys(std::int64_t layer, std::int64_t slot,
                              std::int64_t head) const;
  std::span<const float> values(std::int64_t layer, std::int64_t slot,
                                std::int64_t head) const;

  // Unchecked hot-path page bases for the ragged attention gather:
  // [page_tokens, head_dim] rows of (layer, head) within `page`.
  const float* page_k_data(std::int64_t layer, std::int32_t page,
                           std::int64_t head) const {
    return k_.data() + page_base(layer, page, head);
  }
  const float* page_v_data(std::int64_t layer, std::int32_t page,
                           std::int64_t head) const {
    return v_.data() + page_base(layer, page, head);
  }

  // Bytes currently live (K and V) across in-use slots.
  std::size_t bytes_in_use() const;

  // Host offload round-trip for one in-use slot (ISSUE 5): export_slot packs
  // every layer's cached K/V history into `k`/`v` (resizing them to
  // layers * len * heads * head_dim floats, [layer, head, pos, head_dim]
  // strip order) and returns the common per-layer length; import_slot writes
  // the same packing back (CoW-splitting shared pages first — an import is a
  // divergent write as far as the cache is concerned). Both require every
  // layer of the slot to agree on seq_len (the steady state between engine
  // iterations).
  std::int64_t export_slot(std::int64_t slot, std::vector<float>& k,
                           std::vector<float>& v) const;
  void import_slot(std::int64_t slot, std::span<const float> k,
                   std::span<const float> v, std::int64_t len);

  // Page-granular pack/unpack for the offload ledger: the `rows` leading
  // positions of every (layer, head) strip of `page`, k/v each resized to
  // layers * heads * rows * head_dim floats. import_page restores identical
  // bytes in place (a round-trip, not a divergent write — no CoW), so
  // shared pages transfer once no matter how many chains reference them.
  void export_page(std::int32_t page, std::int64_t rows, std::vector<float>& k,
                   std::vector<float>& v) const;
  void import_page(std::int32_t page, std::int64_t rows,
                   std::span<const float> k, std::span<const float> v);

  // Order-sensitive digest of slot free list, page free list, block tables,
  // and lengths — the TP shard mirroring check.
  std::uint64_t layout_fingerprint() const;

 private:
  struct PrefixEntry {
    std::uint64_t key = 0;     // chain hash of every token through this page
    std::uint64_t parent = 0;  // chain hash before this page (children_ key)
    std::int32_t page = -1;    // resident page, -1 = evicted to host tier
    std::vector<std::int32_t> tokens;   // the tokens this page covers
    std::vector<float> host_k, host_v;  // host tier while evicted
    std::uint64_t last_use = 0;         // LRU clock
  };

  void check_slot(std::int64_t layer, std::int64_t slot) const;
  std::int64_t& len_ref(std::int64_t layer, std::int64_t slot) {
    return len_[static_cast<std::size_t>(layer * slots_ + slot)];
  }
  std::int64_t len_at(std::int64_t layer, std::int64_t slot) const {
    return len_[static_cast<std::size_t>(layer * slots_ + slot)];
  }
  std::int64_t common_len(std::int64_t slot) const;
  std::size_t page_base(std::int64_t layer, std::int32_t page,
                        std::int64_t head) const {
    return static_cast<std::size_t>(page) * page_floats_ +
           static_cast<std::size_t>((layer * heads_ + head) * page_tokens_ *
                                    head_dim_);
  }
  // Pops a free page (LRU-evicting cache-only pages when empty); -1 when
  // truly exhausted. The returned page has refcount 1 and no cache owner.
  std::int32_t alloc_page();
  void unref_page(std::int32_t page);
  bool evict_lru();
  // Erases the coldest host-tier entry and its cached descendants from the
  // cache and children_.
  void drop_coldest_host_entry();
  bool ensure_resident(PrefixEntry& e);
  void cow_split(std::int64_t slot, std::size_t chain_idx);
  // Faults in / CoW-protects the pages covering rows [len, len+tokens).
  void prepare_rows(std::int64_t slot, std::int64_t len, std::int64_t tokens);

  std::int64_t layers_ = 0;
  std::int64_t slots_ = 0;
  std::int64_t heads_ = 0;
  std::int64_t head_dim_ = 0;
  std::int64_t max_seq_ = 0;
  std::int64_t page_tokens_ = 0;
  std::int64_t pages_ = 0;
  bool prefix_cache_ = false;
  std::size_t page_floats_ = 0;  // per page, per buffer (K or V)

  AlignedBuffer<float> k_;
  AlignedBuffer<float> v_;
  std::vector<std::int64_t> len_;   // [layers * slots]
  std::vector<std::uint8_t> used_;  // [slots]
  std::vector<std::int64_t> free_;  // slot free list, LIFO
  std::vector<std::vector<std::int32_t>> table_;  // per-slot page chains
  std::vector<std::int32_t> page_ref_;            // [pages]
  std::vector<std::uint64_t> page_owner_;  // cache key holding page (0=none)
  std::vector<std::int32_t> page_free_;    // page free list, LIFO

  std::unordered_map<std::uint64_t, PrefixEntry> cache_;
  // parent hash -> child entry keys, for the partial-page match.
  std::unordered_multimap<std::uint64_t, std::uint64_t> children_;
  std::uint64_t tick_ = 0;

  std::int64_t total_acquires_ = 0;
  std::int64_t prefix_lookups_ = 0;
  std::int64_t prefix_hits_ = 0;
  std::int64_t prefix_hit_tokens_ = 0;
  std::int64_t cow_splits_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t host_pages_ = 0;
  std::int64_t refetches_ = 0;
  std::size_t spill_bytes_out_ = 0;
  std::size_t spill_bytes_in_ = 0;
  std::function<void(std::size_t, std::size_t)> spill_sink_;
};

}  // namespace dsinfer::kernels
