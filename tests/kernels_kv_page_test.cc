// Paged-KVArena suite (ISSUE 7, `kv_paging` label): page alloc/free churn,
// block-table indirection parity against contiguous strips (bit-identical
// attention output), copy-on-write split correctness for the shared-prefix
// cache, refcount/eviction invariants through the host spill tier, and
// rewind-after-fault on paged chains.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "kernels/attention.h"
#include "kernels/kv_arena.h"

namespace dsinfer::kernels {
namespace {

constexpr std::int64_t kLayers = 2;
constexpr std::int64_t kHeads = 2;
constexpr std::int64_t kHd = 4;
constexpr std::int64_t kMaxSeq = 32;
constexpr std::int64_t kPt = 8;  // page_tokens

KVArena paged(std::int64_t slots, std::int64_t pages, bool prefix = false) {
  return KVArena(kLayers, slots, kHeads, kHd, kMaxSeq, kPt, pages, prefix);
}

// Deterministic K/V block for `tokens` positions in projection order
// [tokens, heads*hd], unique per (seed, token, element).
std::vector<float> block(std::int64_t tokens, std::uint32_t seed) {
  std::vector<float> v(static_cast<std::size_t>(tokens * kHeads * kHd));
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(-1.0f, 1.0f);
  for (auto& x : v) x = d(rng);
  return v;
}

void append_all_layers(KVArena& a, std::int64_t slot,
                       const std::vector<float>& k, const std::vector<float>& v,
                       std::int64_t tokens) {
  for (std::int64_t l = 0; l < kLayers; ++l) a.append(l, slot, k, v, tokens);
}

TEST(KvPaging, StripCtorDegeneratesToOnePagePerSlot) {
  KVArena a(kLayers, 3, kHeads, kHd, kMaxSeq);
  EXPECT_FALSE(a.paged());
  EXPECT_EQ(a.page_tokens(), kMaxSeq);
  EXPECT_EQ(a.total_pages(), 3);
  EXPECT_EQ(a.pages_needed(1), 1);
  EXPECT_EQ(a.pages_needed(kMaxSeq), 1);
}

TEST(KvPaging, PagesFaultInOnDemandNotAtAcquire) {
  auto a = paged(/*slots=*/2, /*pages=*/8);
  const auto s = a.acquire();
  EXPECT_EQ(a.pages_in_use(), 0);  // acquire reserves nothing
  const auto kv = block(1, 1);
  append_all_layers(a, s, kv, kv, 1);
  EXPECT_EQ(a.pages_in_use(), 1);  // one page covers all layers
  EXPECT_EQ(a.slot_pages(s).size(), 1u);
  // Filling through the first page boundary faults in exactly one more.
  const auto kv8 = block(kPt, 2);
  append_all_layers(a, s, kv8, kv8, kPt);
  EXPECT_EQ(a.seq_len(0, s), kPt + 1);
  EXPECT_EQ(a.pages_in_use(), 2);
  EXPECT_EQ(a.slot_pages(s).size(), 2u);
}

TEST(KvPaging, AllocFreeChurnRecyclesPages) {
  auto a = paged(/*slots=*/2, /*pages=*/4);
  const auto kv = block(kPt, 3);
  for (int round = 0; round < 50; ++round) {
    const auto s0 = a.acquire();
    const auto s1 = a.acquire();
    append_all_layers(a, s0, kv, kv, kPt);
    append_all_layers(a, s0, kv, kv, kPt);
    append_all_layers(a, s1, kv, kv, kPt);
    append_all_layers(a, s1, kv, kv, kPt);
    EXPECT_EQ(a.free_pages(), 0);
    a.release(s0);
    EXPECT_EQ(a.free_pages(), 2);
    a.release(s1);
    EXPECT_EQ(a.free_pages(), 4);
  }
  // Every page refcount returned to zero through the churn.
  for (std::int32_t p = 0; p < 4; ++p) EXPECT_EQ(a.page_refcount(p), 0);
}

TEST(KvPaging, AppendThrowsOutOfPagesAndStateStaysConsistent) {
  auto a = paged(/*slots=*/2, /*pages=*/2);
  const auto s0 = a.acquire();
  const auto s1 = a.acquire();
  const auto kv = block(kPt, 4);
  append_all_layers(a, s0, kv, kv, kPt);
  append_all_layers(a, s1, kv, kv, kPt);
  EXPECT_EQ(a.free_pages(), 0);
  EXPECT_THROW(a.append(0, s0, kv, kv, kPt), std::length_error);
  // The failed append changed nothing: lengths intact, chains intact.
  EXPECT_EQ(a.seq_len(0, s0), kPt);
  EXPECT_EQ(a.slot_pages(s0).size(), 1u);
  a.release(s1);
  append_all_layers(a, s0, kv, kv, kPt);  // freed pages make it succeed
  EXPECT_EQ(a.seq_len(0, s0), 2 * kPt);
}

// The indirection-parity invariant: the same ragged attention call over a
// strip arena and a paged arena (same appends) produces bit-identical
// output, because the gather preserves the ascending-j reduction order.
TEST(KvPaging, BlockTableIndirectionParityBitIdentical) {
  KVArena strip(kLayers, 2, kHeads, kHd, kMaxSeq);
  auto pg = paged(/*slots=*/2, /*pages=*/8);
  const auto s0 = strip.acquire();
  const auto p0 = pg.acquire();
  ASSERT_EQ(s0, p0);
  // 19 positions: two full pages plus a partial third.
  const std::int64_t n = 19;
  for (std::int64_t t = 0; t < n; ++t) {
    const auto kv = block(1, static_cast<std::uint32_t>(100 + t));
    append_all_layers(strip, s0, kv, kv, 1);
    append_all_layers(pg, p0, kv, kv, 1);
  }
  ASSERT_GT(pg.slot_pages(p0).size(), 1u);
  const auto q = block(1, 999);
  std::vector<float> out_strip(static_cast<std::size_t>(kHeads * kHd));
  std::vector<float> out_paged(out_strip.size());
  const std::vector<std::int32_t> slots = {static_cast<std::int32_t>(s0)};
  const std::vector<std::int32_t> pos = {static_cast<std::int32_t>(n - 1)};
  for (std::int64_t l = 0; l < kLayers; ++l) {
    attention_fused_ragged(q, strip, l, slots, pos, out_strip);
    attention_fused_ragged(q, pg, l, slots, pos, out_paged);
    for (std::size_t i = 0; i < out_strip.size(); ++i) {
      EXPECT_EQ(out_strip[i], out_paged[i]) << "layer " << l << " elem " << i;
    }
  }
}

TEST(KvPaging, PrefixMatchSharesPagesAndLeavesLastToken) {
  auto a = paged(/*slots=*/3, /*pages=*/12, /*prefix=*/true);
  std::vector<std::int32_t> prompt(2 * kPt + 3);
  std::iota(prompt.begin(), prompt.end(), 7);
  // Cold slot: no hits; prefill all tokens, then publish.
  const auto s0 = a.acquire();
  EXPECT_EQ(a.match_prefix(s0, prompt), 0);
  const auto kv = block(static_cast<std::int64_t>(prompt.size()), 5);
  append_all_layers(a, s0, kv, kv, static_cast<std::int64_t>(prompt.size()));
  EXPECT_EQ(a.publish_prefix(s0, prompt), 2);  // the two full pages
  const auto before = a.pages_in_use();
  // Warm slot: both full pages shared, partial tail not matched beyond them.
  const auto s1 = a.acquire();
  EXPECT_EQ(a.match_prefix(s1, prompt), 2 * kPt);
  EXPECT_EQ(a.seq_len(0, s1), 2 * kPt);
  EXPECT_EQ(a.seq_len(1, s1), 2 * kPt);
  EXPECT_EQ(a.pages_in_use(), before);  // no new pages for shared prefix
  EXPECT_EQ(a.prefix_hits(), 1);
  EXPECT_EQ(a.prefix_hit_tokens(), 2 * kPt);
  // Shared pages are refcounted: owner slot + cache + new slot.
  const auto chain0 = a.slot_pages(s0);
  EXPECT_EQ(a.page_refcount(chain0[0]), 3);
  // A prompt that IS one published page leaves >= 1 token to prefill.
  std::vector<std::int32_t> exact(prompt.begin(), prompt.begin() + kPt);
  const auto s2 = a.acquire();
  EXPECT_EQ(a.match_prefix(s2, exact), kPt - 1);  // partial, not whole page
}

TEST(KvPaging, CowSplitOnDivergentWritePreservesSharedData) {
  auto a = paged(/*slots=*/3, /*pages=*/12, /*prefix=*/true);
  std::vector<std::int32_t> prompt(kPt + 2);
  std::iota(prompt.begin(), prompt.end(), 40);
  const auto s0 = a.acquire();
  const auto kv = block(static_cast<std::int64_t>(prompt.size()), 6);
  append_all_layers(a, s0, kv, kv, static_cast<std::int64_t>(prompt.size()));
  a.publish_prefix(s0, prompt);
  // Snapshot the owner's packed history before the divergent write.
  std::vector<float> k_before, v_before;
  a.export_slot(s0, k_before, v_before);
  // s1 shares the full page, then diverges at position kPt (a different
  // continuation): first append must CoW-split, not corrupt the cache.
  std::vector<std::int32_t> p2(prompt.begin(), prompt.begin() + kPt + 1);
  p2.back() = 9999;
  const auto s1 = a.acquire();
  EXPECT_EQ(a.match_prefix(s1, p2), kPt);
  const auto shared_page = a.slot_pages(s1)[0];
  EXPECT_EQ(a.cow_splits(), 0);
  const auto kv2 = block(2, 77);
  append_all_layers(a, s1, kv2, kv2, 2);  // rows kPt, kPt+1: new page, no CoW
  EXPECT_EQ(a.cow_splits(), 0);
  EXPECT_EQ(a.slot_pages(s1)[0], shared_page);
  // Divergence INSIDE a shared page: partial match then append into it.
  std::vector<std::int32_t> p3(prompt.begin(), prompt.begin() + kPt);
  p3.back() = 4242;  // differs at position kPt-1
  const auto s2 = a.acquire();
  EXPECT_EQ(a.match_prefix(s2, p3), kPt - 1);
  EXPECT_EQ(a.slot_pages(s2)[0], shared_page);
  append_all_layers(a, s2, kv2, kv2, 1);  // writes row kPt-1 -> CoW
  EXPECT_EQ(a.cow_splits(), 1);
  EXPECT_NE(a.slot_pages(s2)[0], shared_page);
  // The original pages still serve the owner bit-identically.
  std::vector<float> k_after, v_after;
  a.export_slot(s0, k_after, v_after);
  EXPECT_EQ(k_before, k_after);
  EXPECT_EQ(v_before, v_after);
}

TEST(KvPaging, LruEvictionSpillsToHostAndRefetchesIntact) {
  // 3 pages total: publish one page, then demand enough private pages that
  // the cache-held page must be evicted, then match it back in.
  auto a = paged(/*slots=*/3, /*pages=*/3, /*prefix=*/true);
  std::vector<std::int32_t> prompt(kPt + 1);
  std::iota(prompt.begin(), prompt.end(), 60);
  const auto s0 = a.acquire();
  const auto kv = block(static_cast<std::int64_t>(prompt.size()), 8);
  append_all_layers(a, s0, kv, kv, static_cast<std::int64_t>(prompt.size()));
  a.publish_prefix(s0, prompt);
  std::vector<float> k_gold, v_gold;
  const auto gold_len = a.export_slot(s0, k_gold, v_gold);
  ASSERT_EQ(gold_len, kPt + 1);
  a.release(s0);  // cache keeps the published page alive (refcount 1)
  EXPECT_EQ(a.evictable_pages(), 1);
  std::size_t out_bytes = 0, in_bytes = 0;
  a.set_spill_sink([&](std::size_t o, std::size_t i) {
    out_bytes += o;
    in_bytes += i;
  });
  // Burn all three pages on a private sequence: forces the eviction.
  const auto s1 = a.acquire();
  const auto kv3 = block(3 * kPt, 9);
  append_all_layers(a, s1, kv3, kv3, 3 * kPt);
  EXPECT_EQ(a.evictions(), 1);
  EXPECT_GT(out_bytes, 0u);
  EXPECT_EQ(a.evictable_pages(), 0);
  a.release(s1);
  // The evicted entry still matches — re-fetched from the host tier with
  // bit-identical contents.
  const auto s2 = a.acquire();
  EXPECT_EQ(a.match_prefix(s2, prompt), kPt);
  EXPECT_EQ(a.refetches(), 1);
  EXPECT_GT(in_bytes, 0u);
  const auto kv1 = block(1, 10);
  append_all_layers(a, s2, kv1, kv1, 1);  // prefill the held-back token
  std::vector<float> k_out, v_out;
  ASSERT_EQ(a.export_slot(s2, k_out, v_out), kPt + 1);
  // Same packed length as gold, so per-(layer, head) offsets line up; the
  // shared first kPt rows of layer 0, head 0 must be bit-identical.
  for (std::int64_t i = 0; i < kPt * kHd; ++i) {
    EXPECT_EQ(k_out[static_cast<std::size_t>(i)],
              k_gold[static_cast<std::size_t>(i)]);
  }
}

TEST(KvPaging, HostTierIsCappedAtPoolPagesAndStaysMirrored) {
  // Many more unique 2-page prompts than pool pages: every publish pushes
  // older prefix pages to the host tier. The tier holds at most `pages`
  // entries, dropping the coldest with its descendants; the most recent
  // spills still re-fetch intact, and two arenas driven identically (TP
  // shards) drop the same entries.
  constexpr std::int64_t kPages = 4;
  constexpr int kPrompts = 40;
  auto a = paged(/*slots=*/2, kPages, /*prefix=*/true);
  auto b = paged(/*slots=*/2, kPages, /*prefix=*/true);
  std::vector<std::vector<std::int32_t>> prompts;
  std::vector<float> k_gold, v_gold;
  for (int n = 0; n < kPrompts; ++n) {
    std::vector<std::int32_t> prompt(2 * kPt + 1);
    std::iota(prompt.begin(), prompt.end(), 1000 * (n + 1));
    const auto kv = block(static_cast<std::int64_t>(prompt.size()),
                          static_cast<std::uint32_t>(100 + n));
    for (KVArena* arena : {&a, &b}) {
      const auto s = arena->acquire();
      append_all_layers(*arena, s, kv, kv,
                        static_cast<std::int64_t>(prompt.size()));
      EXPECT_EQ(arena->publish_prefix(s, prompt), 2);
      if (arena == &a && n + 1 == kPrompts) {
        ASSERT_EQ(arena->export_slot(s, k_gold, v_gold), 2 * kPt + 1);
      }
      arena->release(s);
      EXPECT_LE(arena->host_pages(), kPages) << "after prompt " << n;
    }
    EXPECT_EQ(a.layout_fingerprint(), b.layout_fingerprint());
    EXPECT_EQ(a.host_pages(), b.host_pages());
    prompts.push_back(std::move(prompt));
    // Every cached page stays reachable: dropping a chain's root (its
    // coldest page) drops the rest of the chain with it, so no orphaned
    // child holds a host-tier or pool page that no match can reach.
    std::int64_t reachable = 0;
    for (const auto& p : prompts) reachable += a.cached_prefix_tokens(p) / kPt;
    EXPECT_EQ(reachable, a.host_pages() + a.evictable_pages())
        << "after prompt " << n;
  }
  EXPECT_GT(a.evictions(), 2 * kPages);
  // The oldest prompts were dropped from the cache altogether.
  EXPECT_EQ(a.cached_prefix_tokens(prompts.front()), 0);
  EXPECT_EQ(b.cached_prefix_tokens(prompts.front()), 0);

  // Spill the last prompt's two pages with a private full-length sequence,
  // then match it back: both pages come in from the host tier.
  const auto kv_burn = block(kMaxSeq, 7);
  for (KVArena* arena : {&a, &b}) {
    const auto s = arena->acquire();
    append_all_layers(*arena, s, kv_burn, kv_burn, kMaxSeq);
    arena->release(s);
    EXPECT_LE(arena->host_pages(), kPages);
  }
  EXPECT_EQ(a.evictable_pages(), 0);
  const auto refetched = a.refetches();
  const auto s = a.acquire();
  EXPECT_EQ(a.match_prefix(s, prompts.back()), 2 * kPt);
  EXPECT_EQ(a.refetches(), refetched + 2);
  const auto kv1 = block(1, 99);
  append_all_layers(a, s, kv1, kv1, 1);
  std::vector<float> k_out, v_out;
  ASSERT_EQ(a.export_slot(s, k_out, v_out), 2 * kPt + 1);
  // Per (layer, head) strip of 2*kPt+1 rows: the first 2*kPt are the
  // re-fetched pages and must be bit-identical to what was published.
  const std::int64_t strip = (2 * kPt + 1) * kHd;
  for (std::int64_t lh = 0; lh < kLayers * kHeads; ++lh) {
    for (std::int64_t i = 0; i < 2 * kPt * kHd; ++i) {
      const auto at = static_cast<std::size_t>(lh * strip + i);
      EXPECT_EQ(k_out[at], k_gold[at]);
      EXPECT_EQ(v_out[at], v_gold[at]);
    }
  }
  const auto t = b.acquire();
  EXPECT_EQ(b.match_prefix(t, prompts.back()), 2 * kPt);
  append_all_layers(b, t, kv1, kv1, 1);
  EXPECT_EQ(a.layout_fingerprint(), b.layout_fingerprint());
}

TEST(KvPaging, DroppedHostEntryTakesItsResidentChildAlong) {
  // A chain root can reach the host tier while its child stays resident:
  // the child was published by a slot that prefilled the root's tokens
  // into its own page, so that slot pins the child but not the root. When
  // the full tier then drops the root, the child, unreachable without it,
  // goes too; here it is also the page the spill was about to evict.
  constexpr std::int64_t kPages = 8;
  auto a = paged(/*slots=*/3, kPages, /*prefix=*/true);
  std::vector<std::int32_t> prompt_p(kPt + 1);
  std::iota(prompt_p.begin(), prompt_p.end(), 1);
  std::vector<std::int32_t> prompt_q(prompt_p.begin(), prompt_p.begin() + kPt);
  for (std::int32_t t = 101; t <= 100 + kPt + 1; ++t) prompt_q.push_back(t);
  const auto s0 = a.acquire();
  const auto kv_p = block(kPt + 1, 20);
  append_all_layers(a, s0, kv_p, kv_p, kPt + 1);
  EXPECT_EQ(a.publish_prefix(s0, prompt_p), 1);  // root R
  const auto s1 = a.acquire();
  const auto kv_q = block(2 * kPt + 1, 21);
  append_all_layers(a, s1, kv_q, kv_q, 2 * kPt + 1);
  EXPECT_EQ(a.publish_prefix(s1, prompt_q), 1);  // R refreshed, child C new
  a.release(s0);  // R is cache-only now; s1 still pins C
  // Unique one-page prompts: the first three fit, then each spills the
  // coldest cache-only page (R first) until the tier holds kPages entries.
  std::vector<std::vector<std::int32_t>> prompts{prompt_p, prompt_q};
  for (int n = 0; a.host_pages() < kPages; ++n) {
    ASSERT_LT(n, 64);
    std::vector<std::int32_t> prompt(kPt + 1);
    std::iota(prompt.begin(), prompt.end(), 1000 * (n + 1));
    const auto kv = block(kPt + 1, static_cast<std::uint32_t>(30 + n));
    const auto s = a.acquire();
    append_all_layers(a, s, kv, kv, kPt + 1);
    EXPECT_EQ(a.publish_prefix(s, prompt), 1);
    a.release(s);
    prompts.push_back(std::move(prompt));
  }
  EXPECT_EQ(a.cached_prefix_tokens(prompt_q), 2 * kPt);  // R on host, C resident
  a.release(s1);  // C is now the coldest cache-only page
  const auto evictions = a.evictions();
  const auto s = a.acquire();
  const auto kv_burn = block(kMaxSeq, 22);
  append_all_layers(a, s, kv_burn, kv_burn, kMaxSeq);
  // The spill that picked C dropped R with C: C's page was reused without
  // a copy, and neither prefix is cached any more.
  EXPECT_EQ(a.evictions(), evictions);
  EXPECT_EQ(a.host_pages(), kPages - 1);
  EXPECT_EQ(a.cached_prefix_tokens(prompt_p), 0);
  EXPECT_EQ(a.cached_prefix_tokens(prompt_q), 0);
  std::int64_t reachable = 0;
  for (const auto& p : prompts) reachable += a.cached_prefix_tokens(p) / kPt;
  EXPECT_EQ(reachable, a.host_pages() + a.evictable_pages());
}

TEST(KvPaging, RewindAfterFaultTrimsPagesAndReappendReproduces) {
  auto a = paged(/*slots=*/2, /*pages=*/8);
  const auto s = a.acquire();
  const auto kv = block(2 * kPt + 4, 11);
  // Simulate a mid-iteration fault: layer 0 advanced past layer 1.
  a.append(0, s, kv, kv, 2 * kPt + 4);  // 3 pages
  a.append(1, s, kv, kv, kPt);          // layer 1 only reached one page
  EXPECT_EQ(a.slot_pages(s).size(), 3u);
  a.rewind(s, kPt);
  EXPECT_EQ(a.seq_len(0, s), kPt);
  EXPECT_EQ(a.seq_len(1, s), kPt);
  EXPECT_EQ(a.slot_pages(s).size(), 1u);  // pages past the clamp returned
  EXPECT_EQ(a.free_pages(), 7);
  // Retry reproduces the exact pre-fault contents.
  std::vector<float> tail(kv.begin() + kPt * kHeads * kHd, kv.end());
  a.append(0, s, tail, tail, kPt + 4);
  a.append(1, s, tail, tail, kPt + 4);
  std::vector<float> k_out, v_out;
  EXPECT_EQ(a.export_slot(s, k_out, v_out), 2 * kPt + 4);
  // Spot-check layer 0, head 0 strip against the appended source rows.
  for (std::int64_t pos = 0; pos < 2 * kPt + 4; ++pos) {
    EXPECT_EQ(k_out[static_cast<std::size_t>(pos * kHd)],
              kv[static_cast<std::size_t>(pos * kHeads * kHd)]);
  }
  // Rewind past a shared boundary never extends.
  a.rewind(s, 1000);
  EXPECT_EQ(a.seq_len(0, s), 2 * kPt + 4);
}

TEST(KvPaging, ReleaseKeepsPublishedPagesForCacheReuse) {
  auto a = paged(/*slots=*/2, /*pages=*/6, /*prefix=*/true);
  std::vector<std::int32_t> prompt(kPt + 1);
  std::iota(prompt.begin(), prompt.end(), 80);
  const auto s0 = a.acquire();
  const auto kv = block(kPt + 1, 12);
  append_all_layers(a, s0, kv, kv, kPt + 1);
  a.publish_prefix(s0, prompt);
  a.release(s0);
  // The published page survives release with exactly the cache reference.
  EXPECT_EQ(a.pages_in_use(), 1);
  EXPECT_EQ(a.evictable_pages(), 1);
  const auto s1 = a.acquire();
  EXPECT_EQ(a.match_prefix(s1, prompt), kPt);
  EXPECT_EQ(a.cached_prefix_tokens(prompt), kPt);
  // Fingerprints are deterministic: a twin arena driven with the same call
  // sequence stays mirrored (the TP shard argument).
  auto b = paged(/*slots=*/2, /*pages=*/6, /*prefix=*/true);
  const auto t0 = b.acquire();
  append_all_layers(b, t0, kv, kv, kPt + 1);
  b.publish_prefix(t0, prompt);
  b.release(t0);
  const auto t1 = b.acquire();
  b.match_prefix(t1, prompt);
  EXPECT_EQ(a.layout_fingerprint(), b.layout_fingerprint());
}

TEST(KvPaging, ValidationAndGeometry) {
  EXPECT_THROW(KVArena(1, 1, 1, 1, 8, 0, 4, false), std::invalid_argument);
  EXPECT_THROW(KVArena(1, 1, 1, 1, 8, 16, 4, false), std::invalid_argument);
  auto a = paged(/*slots=*/2, /*pages=*/0);  // 0 = full provisioning
  EXPECT_EQ(a.total_pages(), 2 * (kMaxSeq / kPt));
  EXPECT_EQ(a.pages_needed(0), 0);
  EXPECT_EQ(a.pages_needed(kPt + 1), 2);
  auto s = a.acquire();
  EXPECT_THROW(a.match_prefix(s + 1, {}), std::invalid_argument);
}

}  // namespace
}  // namespace dsinfer::kernels
