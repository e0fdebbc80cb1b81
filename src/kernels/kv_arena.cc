#include "kernels/kv_arena.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace dsinfer::kernels {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// Chain hash: extending the running FNV-1a hash token by token means equal
// keys imply equal full prefixes (token ids from position 0), which is the
// property that makes page sharing bit-identical — K/V at position p depend
// on the entire preceding context, not just the token at p.
std::uint64_t extend_hash(std::uint64_t h, std::span<const std::int32_t> t) {
  for (const std::int32_t tok : t) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(tok));
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x;
  h *= kFnvPrime;
  return h;
}

}  // namespace

KVArena::KVArena(std::int64_t layers, std::int64_t slots, std::int64_t heads,
                 std::int64_t head_dim, std::int64_t max_seq)
    : KVArena(layers, slots, heads, head_dim, max_seq,
              /*page_tokens=*/max_seq, /*pages=*/slots,
              /*prefix_cache=*/false) {}

KVArena::KVArena(std::int64_t layers, std::int64_t slots, std::int64_t heads,
                 std::int64_t head_dim, std::int64_t max_seq,
                 std::int64_t page_tokens, std::int64_t pages,
                 bool prefix_cache)
    : layers_(layers), slots_(slots), heads_(heads), head_dim_(head_dim),
      max_seq_(max_seq), page_tokens_(page_tokens), pages_(pages),
      prefix_cache_(prefix_cache) {
  if (layers < 1 || slots < 1 || heads < 1 || head_dim < 1 || max_seq < 1) {
    throw std::invalid_argument("KVArena: all dimensions must be positive");
  }
  if (page_tokens < 1 || page_tokens > max_seq) {
    throw std::invalid_argument("KVArena: page_tokens must be in [1, max_seq]");
  }
  if (pages_ == 0) pages_ = slots_ * pages_needed(max_seq_);
  if (pages_ < 1 || pages_ > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument("KVArena: bad page count");
  }
  page_floats_ =
      static_cast<std::size_t>(layers_ * heads_ * page_tokens_ * head_dim_);
  k_.reset(static_cast<std::size_t>(pages_) * page_floats_);
  v_.reset(static_cast<std::size_t>(pages_) * page_floats_);
  len_.assign(static_cast<std::size_t>(layers_ * slots_), 0);
  used_.assign(static_cast<std::size_t>(slots_), 0);
  table_.assign(static_cast<std::size_t>(slots_), {});
  page_ref_.assign(static_cast<std::size_t>(pages_), 0);
  page_owner_.assign(static_cast<std::size_t>(pages_), 0);
  free_.reserve(static_cast<std::size_t>(slots_));
  // LIFO lists with id 0 on top: acquire/fault order is 0, 1, 2, ...
  for (std::int64_t s = slots_ - 1; s >= 0; --s) free_.push_back(s);
  page_free_.reserve(static_cast<std::size_t>(pages_));
  for (std::int64_t p = pages_ - 1; p >= 0; --p) {
    page_free_.push_back(static_cast<std::int32_t>(p));
  }
}

std::int64_t KVArena::acquire() {
  if (free_.empty()) return -1;
  const std::int64_t slot = free_.back();
  free_.pop_back();
  used_[static_cast<std::size_t>(slot)] = 1;
  ++total_acquires_;
  return slot;
}

void KVArena::release(std::int64_t slot) {
  if (slot < 0 || slot >= slots_ || !used_[static_cast<std::size_t>(slot)]) {
    throw std::invalid_argument("KVArena::release: slot not in use");
  }
  used_[static_cast<std::size_t>(slot)] = 0;
  for (std::int64_t l = 0; l < layers_; ++l) {
    len_[static_cast<std::size_t>(l * slots_ + slot)] = 0;
  }
  auto& chain = table_[static_cast<std::size_t>(slot)];
  for (const std::int32_t p : chain) unref_page(p);
  chain.clear();
  free_.push_back(slot);
}

bool KVArena::in_use(std::int64_t slot) const {
  return slot >= 0 && slot < slots_ && used_[static_cast<std::size_t>(slot)];
}

void KVArena::check_slot(std::int64_t layer, std::int64_t slot) const {
  if (layer < 0 || layer >= layers_) {
    throw std::invalid_argument("KVArena: layer out of range");
  }
  if (!in_use(slot)) {
    throw std::invalid_argument("KVArena: slot not in use");
  }
}

std::int64_t KVArena::seq_len(std::int64_t layer, std::int64_t slot) const {
  check_slot(layer, slot);
  return len_at(layer, slot);
}

std::int64_t KVArena::common_len(std::int64_t slot) const {
  const auto len = len_at(0, slot);
  for (std::int64_t l = 1; l < layers_; ++l) {
    if (len_at(l, slot) != len) {
      throw std::logic_error("KVArena: layers disagree (mid-iteration state)");
    }
  }
  return len;
}

std::int64_t KVArena::evictable_pages() const {
  std::int64_t n = 0;
  for (const auto& [key, e] : cache_) {
    if (e.page >= 0 && page_ref_[static_cast<std::size_t>(e.page)] == 1) ++n;
  }
  return n;
}

std::span<const std::int32_t> KVArena::slot_pages(std::int64_t slot) const {
  check_slot(0, slot);
  const auto& chain = table_[static_cast<std::size_t>(slot)];
  return {chain.data(), chain.size()};
}

std::int32_t KVArena::page_refcount(std::int32_t page) const {
  if (page < 0 || page >= pages_) {
    throw std::invalid_argument("KVArena: page out of range");
  }
  return page_ref_[static_cast<std::size_t>(page)];
}

std::int32_t KVArena::alloc_page() {
  while (page_free_.empty()) {
    if (!evict_lru()) return -1;
  }
  const std::int32_t p = page_free_.back();
  page_free_.pop_back();
  page_ref_[static_cast<std::size_t>(p)] = 1;
  page_owner_[static_cast<std::size_t>(p)] = 0;
  return p;
}

void KVArena::unref_page(std::int32_t page) {
  auto& ref = page_ref_[static_cast<std::size_t>(page)];
  if (--ref == 0) page_free_.push_back(page);
}

bool KVArena::evict_lru() {
  // Coldest cache-only page wins; (last_use, key) ordering keeps the choice
  // deterministic across TP shards regardless of hash-map iteration order.
  PrefixEntry* victim = nullptr;
  for (auto& [key, e] : cache_) {
    if (e.page < 0 || page_ref_[static_cast<std::size_t>(e.page)] != 1) {
      continue;
    }
    if (!victim || e.last_use < victim->last_use ||
        (e.last_use == victim->last_use && e.key < victim->key)) {
      victim = &e;
    }
  }
  if (!victim) return false;
  // The host tier holds at most `pages_` entries: a spill that would exceed
  // it first drops the coldest host-tier entry, in the same order. If that
  // drop took the victim along (a descendant), its page is already free.
  if (host_pages_ >= pages_) {
    const std::uint64_t victim_key = victim->key;
    drop_coldest_host_entry();
    const auto it = cache_.find(victim_key);
    if (it == cache_.end()) return true;
    victim = &it->second;
  }
  const auto p = static_cast<std::size_t>(victim->page);
  victim->host_k.resize(page_floats_);
  victim->host_v.resize(page_floats_);
  std::memcpy(victim->host_k.data(), k_.data() + p * page_floats_,
              page_floats_ * sizeof(float));
  std::memcpy(victim->host_v.data(), v_.data() + p * page_floats_,
              page_floats_ * sizeof(float));
  const std::size_t bytes = 2 * page_floats_ * sizeof(float);
  spill_bytes_out_ += bytes;
  if (spill_sink_) spill_sink_(bytes, 0);
  page_owner_[p] = 0;
  page_ref_[p] = 0;
  page_free_.push_back(victim->page);
  victim->page = -1;
  ++host_pages_;
  ++evictions_;
  return true;
}

void KVArena::drop_coldest_host_entry() {
  // Host-tier entries are the evicted ones still holding their copy (an
  // entry being re-fetched has moved its copy out and is not a candidate).
  const PrefixEntry* coldest = nullptr;
  for (const auto& [key, e] : cache_) {
    if (e.page >= 0 || e.host_k.empty()) continue;
    if (!coldest || e.last_use < coldest->last_use ||
        (e.last_use == coldest->last_use && e.key < coldest->key)) {
      coldest = &e;
    }
  }
  if (!coldest) return;
  for (auto [b, e] = children_.equal_range(coldest->parent); b != e; ++b) {
    if (b->second == coldest->key) {
      children_.erase(b);
      break;
    }
  }
  // The full-page walk cannot reach its descendants without it, so they go
  // too: host copies are freed, resident pages lose the cache's reference.
  // Freed pages enter the free list sorted, so every TP shard sees the same
  // order whatever the hash maps' iteration order.
  std::vector<std::uint64_t> doomed{coldest->key};
  std::vector<std::int32_t> freed;
  for (std::size_t i = 0; i < doomed.size(); ++i) {
    const std::uint64_t key = doomed[i];
    const auto it = cache_.find(key);
    if (it == cache_.end()) continue;
    const PrefixEntry& d = it->second;
    if (d.page >= 0) {
      const auto p = static_cast<std::size_t>(d.page);
      page_owner_[p] = 0;
      if (--page_ref_[p] == 0) freed.push_back(d.page);
    } else if (!d.host_k.empty()) {
      --host_pages_;
    }
    cache_.erase(it);
    for (auto [b, e] = children_.equal_range(key); b != e; ++b) {
      doomed.push_back(b->second);
    }
    children_.erase(key);
  }
  std::sort(freed.begin(), freed.end());
  page_free_.insert(page_free_.end(), freed.begin(), freed.end());
}

bool KVArena::ensure_resident(PrefixEntry& e) {
  if (e.page >= 0) return true;
  // Take the host copy out of the tier first, so that the eviction the
  // allocation may trigger cannot drop `e` to make room.
  std::vector<float> host_k = std::move(e.host_k);
  std::vector<float> host_v = std::move(e.host_v);
  e.host_k.clear();
  e.host_v.clear();
  --host_pages_;
  const std::int32_t p = alloc_page();  // may evict a colder entry, never e
  if (p < 0) {
    e.host_k = std::move(host_k);
    e.host_v = std::move(host_v);
    ++host_pages_;
    return false;
  }
  std::memcpy(k_.data() + static_cast<std::size_t>(p) * page_floats_,
              host_k.data(), page_floats_ * sizeof(float));
  std::memcpy(v_.data() + static_cast<std::size_t>(p) * page_floats_,
              host_v.data(), page_floats_ * sizeof(float));
  const std::size_t bytes = 2 * page_floats_ * sizeof(float);
  spill_bytes_in_ += bytes;
  if (spill_sink_) spill_sink_(0, bytes);
  page_owner_[static_cast<std::size_t>(p)] = e.key;
  e.page = p;
  ++refetches_;
  return true;
}

void KVArena::cow_split(std::int64_t slot, std::size_t chain_idx) {
  auto& chain = table_[static_cast<std::size_t>(slot)];
  const std::int32_t old = chain[chain_idx];
  const std::int32_t np = alloc_page();
  if (np < 0) throw std::length_error("KVArena::append: out of pages");
  // Whole-page copy: a shared page holds complete valid rows for every
  // position it covers, so the split page is correct for any later write.
  std::memcpy(k_.data() + static_cast<std::size_t>(np) * page_floats_,
              k_.data() + static_cast<std::size_t>(old) * page_floats_,
              page_floats_ * sizeof(float));
  std::memcpy(v_.data() + static_cast<std::size_t>(np) * page_floats_,
              v_.data() + static_cast<std::size_t>(old) * page_floats_,
              page_floats_ * sizeof(float));
  unref_page(old);
  chain[chain_idx] = np;
  ++cow_splits_;
}

void KVArena::prepare_rows(std::int64_t slot, std::int64_t len,
                           std::int64_t tokens) {
  auto& chain = table_[static_cast<std::size_t>(slot)];
  const auto first = static_cast<std::size_t>(len / page_tokens_);
  const auto last = static_cast<std::size_t>((len + tokens - 1) / page_tokens_);
  for (std::size_t pi = first; pi <= last; ++pi) {
    if (pi < chain.size()) {
      if (page_ref_[static_cast<std::size_t>(chain[pi])] > 1) {
        cow_split(slot, pi);
      }
    } else {
      const std::int32_t p = alloc_page();
      if (p < 0) throw std::length_error("KVArena::append: out of pages");
      chain.push_back(p);
    }
  }
}

void KVArena::append(std::int64_t layer, std::int64_t slot,
                     std::span<const float> k, std::span<const float> v,
                     std::int64_t tokens) {
  check_slot(layer, slot);
  const auto need = static_cast<std::size_t>(tokens * heads_ * head_dim_);
  if (tokens < 1 || k.size() < need || v.size() < need) {
    throw std::invalid_argument("KVArena::append: span too small");
  }
  auto& len = len_ref(layer, slot);
  if (len + tokens > max_seq_) {
    throw std::length_error("KVArena::append: exceeds max_seq");
  }
  prepare_rows(slot, len, tokens);
  const auto& chain = table_[static_cast<std::size_t>(slot)];
  const auto hd = static_cast<std::size_t>(head_dim_);
  for (std::int64_t t = 0; t < tokens; ++t) {
    const float* ksrc = k.data() + t * heads_ * head_dim_;
    const float* vsrc = v.data() + t * heads_ * head_dim_;
    const std::int64_t row = len + t;
    const auto page = chain[static_cast<std::size_t>(row / page_tokens_)];
    const auto r = static_cast<std::size_t>(row % page_tokens_);
    for (std::int64_t h = 0; h < heads_; ++h) {
      const std::size_t off = page_base(layer, page, h) + r * hd;
      std::memcpy(k_.data() + off, ksrc + h * head_dim_, hd * sizeof(float));
      std::memcpy(v_.data() + off, vsrc + h * head_dim_, hd * sizeof(float));
    }
  }
  len += tokens;
}

void KVArena::rewind(std::int64_t slot, std::int64_t len) {
  check_slot(0, slot);
  if (len < 0) {
    throw std::invalid_argument("KVArena::rewind: negative length");
  }
  std::int64_t keep = 0;
  for (std::int64_t l = 0; l < layers_; ++l) {
    auto& n = len_ref(l, slot);
    if (n > len) n = len;
    keep = std::max(keep, n);
  }
  auto& chain = table_[static_cast<std::size_t>(slot)];
  const auto needed = static_cast<std::size_t>(pages_needed(keep));
  while (chain.size() > needed) {
    unref_page(chain.back());
    chain.pop_back();
  }
}

std::int64_t KVArena::match_prefix(std::int64_t slot,
                                   std::span<const std::int32_t> prompt) {
  check_slot(0, slot);
  if (common_len(slot) != 0) {
    throw std::invalid_argument("KVArena::match_prefix: slot not fresh");
  }
  if (!prefix_cache_) return 0;
  ++prefix_lookups_;
  // Always leave >= 1 prompt token for the caller to prefill: the last row
  // is where admission reads its first logits.
  const auto limit = std::min<std::int64_t>(
      static_cast<std::int64_t>(prompt.size()) - 1, max_seq_);
  if (limit < 1) return 0;
  auto& chain = table_[static_cast<std::size_t>(slot)];
  std::uint64_t h = kFnvBasis;
  std::int64_t matched = 0;
  std::size_t chunk = 0;
  while (static_cast<std::int64_t>(chunk + 1) * page_tokens_ <= limit) {
    const auto ctoks = prompt.subspan(chunk * page_tokens_,
                                      static_cast<std::size_t>(page_tokens_));
    const std::uint64_t h2 = extend_hash(h, ctoks);
    auto it = cache_.find(h2);
    if (it == cache_.end() ||
        !std::equal(it->second.tokens.begin(), it->second.tokens.end(),
                    ctoks.begin(), ctoks.end())) {
      break;  // miss (or an FNV collision — treated as a miss)
    }
    if (!ensure_resident(it->second)) break;  // pool too hot to re-fetch
    chain.push_back(it->second.page);
    ++page_ref_[static_cast<std::size_t>(it->second.page)];
    it->second.last_use = ++tick_;
    matched += page_tokens_;
    h = h2;
    ++chunk;
  }
  // Partial match: the longest shared leading run of one published child
  // page. The slot's first divergent append into that page CoW-splits it.
  if (matched < limit) {
    const auto rest = prompt.subspan(chunk * page_tokens_);
    const auto cap = std::min<std::int64_t>(limit - matched, page_tokens_);
    PrefixEntry* best = nullptr;
    std::int64_t best_m = 0;
    for (auto [b, e] = children_.equal_range(h); b != e; ++b) {
      auto& ent = cache_.at(b->second);
      std::int64_t m = 0;
      const auto n = std::min<std::int64_t>(
          cap, static_cast<std::int64_t>(ent.tokens.size()));
      while (m < n && ent.tokens[static_cast<std::size_t>(m)] ==
                          rest[static_cast<std::size_t>(m)]) {
        ++m;
      }
      if (m > best_m || (m == best_m && m > 0 && best && ent.key < best->key)) {
        best = &ent;
        best_m = m;
      }
    }
    if (best && best_m > 0 && ensure_resident(*best)) {
      chain.push_back(best->page);
      ++page_ref_[static_cast<std::size_t>(best->page)];
      best->last_use = ++tick_;
      matched += best_m;
    }
  }
  for (std::int64_t l = 0; l < layers_; ++l) len_ref(l, slot) = matched;
  if (matched > 0) {
    ++prefix_hits_;
    prefix_hit_tokens_ += matched;
  }
  return matched;
}

std::int64_t KVArena::publish_prefix(std::int64_t slot,
                                     std::span<const std::int32_t> prompt) {
  check_slot(0, slot);
  if (!prefix_cache_) return 0;
  const auto len = common_len(slot);
  const auto nfull =
      std::min(len, static_cast<std::int64_t>(prompt.size())) / page_tokens_;
  const auto& chain = table_[static_cast<std::size_t>(slot)];
  std::uint64_t h = kFnvBasis;
  std::int64_t published = 0;
  for (std::int64_t chunk = 0; chunk < nfull; ++chunk) {
    const auto ctoks =
        prompt.subspan(static_cast<std::size_t>(chunk * page_tokens_),
                       static_cast<std::size_t>(page_tokens_));
    const std::uint64_t h2 = extend_hash(h, ctoks);
    if (auto it = cache_.find(h2); it != cache_.end()) {
      it->second.last_use = ++tick_;  // already published — refresh LRU
      h = h2;
      continue;
    }
    const std::int32_t p = chain[static_cast<std::size_t>(chunk)];
    if (page_owner_[static_cast<std::size_t>(p)] != 0) {
      h = h2;  // page already belongs to another chain hash; don't re-own
      continue;
    }
    PrefixEntry e;
    e.key = h2;
    e.parent = h;
    e.page = p;
    e.tokens.assign(ctoks.begin(), ctoks.end());
    e.last_use = ++tick_;
    cache_.emplace(h2, std::move(e));
    children_.emplace(h, h2);
    ++page_ref_[static_cast<std::size_t>(p)];  // the cache's own reference
    page_owner_[static_cast<std::size_t>(p)] = h2;
    ++published;
    h = h2;
  }
  return published;
}

std::int64_t KVArena::cached_prefix_tokens(
    std::span<const std::int32_t> prompt) const {
  if (!prefix_cache_) return 0;
  const auto limit = std::min<std::int64_t>(
      static_cast<std::int64_t>(prompt.size()) - 1, max_seq_);
  if (limit < 1) return 0;
  std::uint64_t h = kFnvBasis;
  std::int64_t matched = 0;
  std::size_t chunk = 0;
  while (static_cast<std::int64_t>(chunk + 1) * page_tokens_ <= limit) {
    const auto ctoks = prompt.subspan(chunk * page_tokens_,
                                      static_cast<std::size_t>(page_tokens_));
    const std::uint64_t h2 = extend_hash(h, ctoks);
    const auto it = cache_.find(h2);
    if (it == cache_.end() ||
        !std::equal(it->second.tokens.begin(), it->second.tokens.end(),
                    ctoks.begin(), ctoks.end())) {
      break;
    }
    matched += page_tokens_;
    h = h2;
    ++chunk;
  }
  if (matched < limit) {
    const auto rest = prompt.subspan(chunk * page_tokens_);
    const auto cap = std::min<std::int64_t>(limit - matched, page_tokens_);
    std::int64_t best_m = 0;
    for (auto [b, e] = children_.equal_range(h); b != e; ++b) {
      const auto& ent = cache_.at(b->second);
      std::int64_t m = 0;
      const auto n = std::min<std::int64_t>(
          cap, static_cast<std::int64_t>(ent.tokens.size()));
      while (m < n && ent.tokens[static_cast<std::size_t>(m)] ==
                          rest[static_cast<std::size_t>(m)]) {
        ++m;
      }
      best_m = std::max(best_m, m);
    }
    matched += best_m;
  }
  return matched;
}

KVArena::PrefixProbe KVArena::probe_prefix(
    std::span<const std::int32_t> prompt) const {
  PrefixProbe pr;
  if (!prefix_cache_) return pr;
  const auto limit = std::min<std::int64_t>(
      static_cast<std::int64_t>(prompt.size()) - 1, max_seq_);
  if (limit < 1) return pr;
  std::uint64_t h = kFnvBasis;
  std::size_t chunk = 0;
  while (static_cast<std::int64_t>(chunk + 1) * page_tokens_ <= limit) {
    const auto ctoks = prompt.subspan(chunk * page_tokens_,
                                      static_cast<std::size_t>(page_tokens_));
    const std::uint64_t h2 = extend_hash(h, ctoks);
    const auto it = cache_.find(h2);
    // An evicted entry stops the resident walk: a real match would have to
    // fault a page back in, which is pool demand, not a discount.
    if (it == cache_.end() || it->second.page < 0 ||
        !std::equal(it->second.tokens.begin(), it->second.tokens.end(),
                    ctoks.begin(), ctoks.end())) {
      break;
    }
    ++pr.full_pages_resident;
    if (page_ref_[static_cast<std::size_t>(it->second.page)] == 1) {
      ++pr.new_holds;
    }
    pr.tokens += page_tokens_;
    h = h2;
    ++chunk;
  }
  return pr;
}

std::int64_t KVArena::shared_held_pages() const {
  std::int64_t n = 0;
  for (std::int64_t p = 0; p < pages_; ++p) {
    if (page_owner_[static_cast<std::size_t>(p)] != 0 &&
        page_ref_[static_cast<std::size_t>(p)] >= 2) {
      ++n;
    }
  }
  return n;
}

std::span<const float> KVArena::keys(std::int64_t layer, std::int64_t slot,
                                     std::int64_t head) const {
  check_slot(layer, slot);
  const auto len = len_at(layer, slot);
  if (len == 0) return {};
  if (len > page_tokens_) {
    throw std::logic_error(
        "KVArena::keys: multi-page chain (gather via the block table)");
  }
  const auto page = table_[static_cast<std::size_t>(slot)][0];
  return {k_.data() + page_base(layer, page, head),
          static_cast<std::size_t>(len * head_dim_)};
}

std::span<const float> KVArena::values(std::int64_t layer, std::int64_t slot,
                                       std::int64_t head) const {
  check_slot(layer, slot);
  const auto len = len_at(layer, slot);
  if (len == 0) return {};
  if (len > page_tokens_) {
    throw std::logic_error(
        "KVArena::values: multi-page chain (gather via the block table)");
  }
  const auto page = table_[static_cast<std::size_t>(slot)][0];
  return {v_.data() + page_base(layer, page, head),
          static_cast<std::size_t>(len * head_dim_)};
}

std::int64_t KVArena::export_slot(std::int64_t slot, std::vector<float>& k,
                                  std::vector<float>& v) const {
  check_slot(0, slot);
  const auto len = common_len(slot);
  const auto row = static_cast<std::size_t>(len * head_dim_);
  k.resize(static_cast<std::size_t>(layers_ * heads_) * row);
  v.resize(k.size());
  const auto& chain = table_[static_cast<std::size_t>(slot)];
  const auto hd = static_cast<std::size_t>(head_dim_);
  std::size_t off = 0;
  for (std::int64_t l = 0; l < layers_; ++l) {
    for (std::int64_t h = 0; h < heads_; ++h) {
      for (std::int64_t pos = 0; pos < len;) {
        const auto page = chain[static_cast<std::size_t>(pos / page_tokens_)];
        const auto run = std::min(page_tokens_ - pos % page_tokens_, len - pos);
        const std::size_t src =
            page_base(l, page, h) +
            static_cast<std::size_t>(pos % page_tokens_) * hd;
        std::memcpy(k.data() + off, k_.data() + src,
                    static_cast<std::size_t>(run) * hd * sizeof(float));
        std::memcpy(v.data() + off, v_.data() + src,
                    static_cast<std::size_t>(run) * hd * sizeof(float));
        off += static_cast<std::size_t>(run) * hd;
        pos += run;
      }
    }
  }
  return len;
}

void KVArena::import_slot(std::int64_t slot, std::span<const float> k,
                          std::span<const float> v, std::int64_t len) {
  check_slot(0, slot);
  if (len < 0 || len > max_seq_) {
    throw std::invalid_argument("KVArena::import_slot: bad length");
  }
  const auto row = static_cast<std::size_t>(len * head_dim_);
  const auto need = static_cast<std::size_t>(layers_ * heads_) * row;
  if (k.size() < need || v.size() < need) {
    throw std::invalid_argument("KVArena::import_slot: span too small");
  }
  auto& chain = table_[static_cast<std::size_t>(slot)];
  const auto needed = static_cast<std::size_t>(pages_needed(len));
  while (chain.size() > needed) {
    unref_page(chain.back());
    chain.pop_back();
  }
  for (std::size_t pi = 0; pi < needed; ++pi) {
    if (pi < chain.size()) {
      // An import is a divergent write as far as sharing is concerned.
      if (page_ref_[static_cast<std::size_t>(chain[pi])] > 1) {
        cow_split(slot, pi);
      }
    } else {
      const std::int32_t p = alloc_page();
      if (p < 0) throw std::length_error("KVArena::import_slot: out of pages");
      chain.push_back(p);
    }
  }
  const auto hd = static_cast<std::size_t>(head_dim_);
  std::size_t off = 0;
  for (std::int64_t l = 0; l < layers_; ++l) {
    for (std::int64_t h = 0; h < heads_; ++h) {
      for (std::int64_t pos = 0; pos < len;) {
        const auto page = chain[static_cast<std::size_t>(pos / page_tokens_)];
        const auto run = std::min(page_tokens_ - pos % page_tokens_, len - pos);
        const std::size_t dst =
            page_base(l, page, h) +
            static_cast<std::size_t>(pos % page_tokens_) * hd;
        std::memcpy(k_.data() + dst, k.data() + off,
                    static_cast<std::size_t>(run) * hd * sizeof(float));
        std::memcpy(v_.data() + dst, v.data() + off,
                    static_cast<std::size_t>(run) * hd * sizeof(float));
        off += static_cast<std::size_t>(run) * hd;
        pos += run;
      }
    }
    len_ref(l, slot) = len;
  }
}

void KVArena::export_page(std::int32_t page, std::int64_t rows,
                          std::vector<float>& k, std::vector<float>& v) const {
  if (page < 0 || page >= pages_) {
    throw std::invalid_argument("KVArena::export_page: page out of range");
  }
  if (rows < 0 || rows > page_tokens_) {
    throw std::invalid_argument("KVArena::export_page: bad row count");
  }
  const auto hd = static_cast<std::size_t>(head_dim_);
  const auto strip = static_cast<std::size_t>(rows) * hd;
  k.resize(static_cast<std::size_t>(layers_ * heads_) * strip);
  v.resize(k.size());
  std::size_t off = 0;
  for (std::int64_t l = 0; l < layers_; ++l) {
    for (std::int64_t h = 0; h < heads_; ++h) {
      const std::size_t src = page_base(l, page, h);
      std::memcpy(k.data() + off, k_.data() + src, strip * sizeof(float));
      std::memcpy(v.data() + off, v_.data() + src, strip * sizeof(float));
      off += strip;
    }
  }
}

void KVArena::import_page(std::int32_t page, std::int64_t rows,
                          std::span<const float> k, std::span<const float> v) {
  if (page < 0 || page >= pages_) {
    throw std::invalid_argument("KVArena::import_page: page out of range");
  }
  if (rows < 0 || rows > page_tokens_) {
    throw std::invalid_argument("KVArena::import_page: bad row count");
  }
  const auto hd = static_cast<std::size_t>(head_dim_);
  const auto strip = static_cast<std::size_t>(rows) * hd;
  const auto need = static_cast<std::size_t>(layers_ * heads_) * strip;
  if (k.size() < need || v.size() < need) {
    throw std::invalid_argument("KVArena::import_page: span too small");
  }
  std::size_t off = 0;
  for (std::int64_t l = 0; l < layers_; ++l) {
    for (std::int64_t h = 0; h < heads_; ++h) {
      const std::size_t dst = page_base(l, page, h);
      std::memcpy(k_.data() + dst, k.data() + off, strip * sizeof(float));
      std::memcpy(v_.data() + dst, v.data() + off, strip * sizeof(float));
      off += strip;
    }
  }
}

std::size_t KVArena::bytes_in_use() const {
  std::size_t rows = 0;
  for (std::int64_t s = 0; s < slots_; ++s) {
    if (!used_[static_cast<std::size_t>(s)]) continue;
    for (std::int64_t l = 0; l < layers_; ++l) {
      rows += static_cast<std::size_t>(len_at(l, s));
    }
  }
  return 2 * rows * static_cast<std::size_t>(heads_ * head_dim_) *
         sizeof(float);
}

std::uint64_t KVArena::layout_fingerprint() const {
  std::uint64_t h = kFnvBasis;
  for (const auto s : free_) h = mix(h, static_cast<std::uint64_t>(s));
  h = mix(h, 0xf5ee);
  for (const auto p : page_free_) h = mix(h, static_cast<std::uint64_t>(p));
  for (std::int64_t s = 0; s < slots_; ++s) {
    h = mix(h, used_[static_cast<std::size_t>(s)]);
    for (const auto p : table_[static_cast<std::size_t>(s)]) {
      h = mix(h, static_cast<std::uint64_t>(p));
    }
    h = mix(h, 0x51a7);
    for (std::int64_t l = 0; l < layers_; ++l) {
      h = mix(h, static_cast<std::uint64_t>(len_at(l, s)));
    }
  }
  return h;
}

}  // namespace dsinfer::kernels
