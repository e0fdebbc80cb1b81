#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>

namespace servebench {

namespace {

std::int64_t to_int(const std::string& key, const std::string& v) {
  std::size_t used = 0;
  const long long x = std::stoll(v, &used);
  if (used != v.size()) throw std::invalid_argument("bad integer for " + key);
  return x;
}

double to_double(const std::string& key, const std::string& v) {
  std::size_t used = 0;
  const double x = std::stod(v, &used);
  if (used != v.size() || !std::isfinite(x)) {
    throw std::invalid_argument("bad number for " + key);
  }
  return x;
}

// splitmix64: derives independent generator seeds from (seed, stream, ...).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
std::uint64_t key(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0,
                  std::uint64_t d = 0) {
  return mix(mix(mix(mix(a) ^ b) ^ c) ^ d);
}

}  // namespace

int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) throw std::runtime_error("no CPU in the affinity mask");
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  return cpu;
}

void set_param(Params& p, const std::string& k, const std::string& v) {
  const std::map<std::string, std::int64_t*> ints = {
      {"model.hidden", &p.hidden},
      {"model.layers", &p.layers},
      {"model.heads", &p.heads},
      {"engine.tensor_parallel", &p.tensor_parallel},
      {"engine.kv_page_tokens", &p.kv_page_tokens},
      {"engine.kv_pages", &p.kv_pages},
      {"engine.prefill_chunk_tokens", &p.prefill_chunk_tokens},
      {"traffic.clients", &p.clients},
      {"traffic.system_prompts", &p.system_prompts},
      {"traffic.system_prompt_tokens", &p.system_prompt_tokens},
      {"traffic.unique_tokens_min", &p.unique_tokens_min},
      {"traffic.unique_tokens_max", &p.unique_tokens_max},
      {"traffic.output_tokens_min", &p.output_tokens_min},
      {"traffic.output_tokens_max", &p.output_tokens_max},
      {"run.check_samples", &p.check_samples},
      {"run.replay_steps", &p.replay_steps},
      {"run.replay_admits", &p.replay_admits},
  };
  const std::map<std::string, double*> reals = {
      {"traffic.think_ms_max", &p.think_ms_max},
      {"slo.ttft_ms", &p.ttft_slo_ms},
      {"slo.itl_ms", &p.itl_slo_ms},
  };
  if (auto it = ints.find(k); it != ints.end()) {
    *it->second = to_int(k, v);
  } else if (auto jt = reals.find(k); jt != reals.end()) {
    *jt->second = to_double(k, v);
  } else if (k == "engine.prefix_cache") {
    p.prefix_cache = to_int(k, v) != 0;
  } else {
    throw std::invalid_argument("unknown workload parameter " + k);
  }
}

void validate(const Params& p, std::int64_t max_seq) {
  auto need = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("workload: ") + what);
  };
  need(p.hidden > 0 && p.layers > 0 && p.heads > 0, "model shape");
  need(p.tensor_parallel > 0, "tensor_parallel");
  need(p.clients > 0, "clients");
  need(p.think_ms_max >= 0, "think time");
  need(p.unique_tokens_min > 0 && p.unique_tokens_min <= p.unique_tokens_max,
       "unique token range");
  need(p.output_tokens_min > 0 && p.output_tokens_min <= p.output_tokens_max,
       "output token range");
  need(p.system_prompts >= 0 && p.system_prompt_tokens >= 0 &&
           (p.system_prompts == 0) == (p.system_prompt_tokens == 0),
       "system prompts");
  need(p.system_prompt_tokens + p.unique_tokens_max + p.output_tokens_max <=
           max_seq,
       "prompt + output exceed the model's max_seq");
  need(p.ttft_slo_ms > 0 && p.itl_slo_ms > 0, "SLO limits");
  need(p.check_samples >= 1, "check samples");
  need(p.replay_steps >= 1 && p.replay_admits >= 1, "replay budget");
}

Workload::Workload(const Params& p, std::uint64_t seed, std::int64_t vocab)
    : p_(p), seed_(seed), vocab_(vocab) {
  double total = 0;
  for (std::int64_t s = 0; s < p.system_prompts; ++s) {
    system_prompts_.push_back(
        fresh_tokens(key(seed, 0x5157, static_cast<std::uint64_t>(s)),
                     p.system_prompt_tokens));
    total += 1.0 / std::pow(static_cast<double>(s + 1), kZipfS);
    zipf_cdf_.push_back(total);
  }
  for (auto& c : zipf_cdf_) c /= total;
}

std::vector<std::int32_t> Workload::fresh_tokens(std::uint64_t k,
                                                 std::int64_t n) const {
  std::mt19937_64 rng(k);
  std::uniform_int_distribution<std::int32_t> tok(
      0, static_cast<std::int32_t>(vocab_ - 1));
  std::vector<std::int32_t> out(static_cast<std::size_t>(n));
  for (auto& t : out) t = tok(rng);
  return out;
}

std::int64_t Workload::stratified(std::int64_t lo, std::int64_t hi,
                                  std::int64_t client, std::int64_t k,
                                  std::uint64_t stream, std::uint64_t salt,
                                  double u) const {
  const std::int64_t n = hi - lo + 1;
  const std::int64_t strata = std::min<std::int64_t>(8, n);
  std::vector<std::int64_t> order(static_cast<std::size_t>(strata));
  for (std::int64_t i = 0; i < strata; ++i) order[static_cast<std::size_t>(i)] = i;
  // One seeded order per block of `strata` requests, shared by all clients;
  // client c takes it from offset c, so each client's block and each round
  // of the clients' k-th requests cover the sub-ranges evenly.
  std::mt19937_64 rng(key(seed_, stream, salt, static_cast<std::uint64_t>(k / strata)));
  std::shuffle(order.begin(), order.end(), rng);
  const double q =
      (static_cast<double>(order[static_cast<std::size_t>((client + k) % strata)]) + u) /
      static_cast<double>(strata);
  return std::min(hi, lo + static_cast<std::int64_t>(q * static_cast<double>(n)));
}

Request Workload::request(std::int64_t client, std::int64_t k,
                          std::uint64_t stream) const {
  const std::uint64_t base = key(seed_, stream, static_cast<std::uint64_t>(client),
                                 static_cast<std::uint64_t>(k));
  std::mt19937_64 rng(base);
  std::uniform_real_distribution<double> uni(0, 1);
  Request r;
  r.client = client;
  if (!system_prompts_.empty()) {
    const double u = uni(rng);
    auto pick = std::min<std::size_t>(
        static_cast<std::size_t>(
            std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
            zipf_cdf_.begin()),
        system_prompts_.size() - 1);
    // The clients' first requests, all sent in the warm-up, cover every
    // system prompt, so the measured window never pays a cold miss whose
    // timing would depend on when a rare prompt first came up.
    if (k == 0) pick = static_cast<std::size_t>(client) % system_prompts_.size();
    r.prompt = system_prompts_[pick];
  }
  const auto len = stratified(p_.unique_tokens_min, p_.unique_tokens_max, client,
                              k, stream, 0x1e4, uni(rng));
  const auto tail = fresh_tokens(mix(base), len);
  r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
  r.max_new = stratified(p_.output_tokens_min, p_.output_tokens_max, client, k,
                         stream, 0x0a7, uni(rng));
  if (k == 0) {
    r.max_new = std::max<std::int64_t>(1, r.max_new * (client + 1) / p_.clients);
  }
  return r;
}

double Workload::think_s(std::int64_t client, std::int64_t k,
                         std::uint64_t stream) const {
  std::mt19937_64 rng(key(seed_, stream, static_cast<std::uint64_t>(client),
                          static_cast<std::uint64_t>(k) ^ (0x7417ULL << 32)));
  return std::uniform_real_distribution<double>(0, p_.think_ms_max)(rng) / 1e3;
}

std::vector<SpanTotals> span_totals(const std::vector<Span>& spans) {
  // Children per parent; self time is the parent's duration minus the union
  // of its children's intervals clipped to the parent.
  std::vector<std::vector<std::int32_t>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      kids[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::map<std::string, SpanTotals> by_name;
  std::vector<std::pair<double, double>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (auto c : kids[i]) {
      const Span& k = spans[static_cast<std::size_t>(c)];
      const double a = std::max(k.start, s.start), b = std::min(k.end, s.end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, hi = s.start;
    for (const auto& [a, b] : iv) {
      const double lo = std::max(a, hi);
      if (b > lo) covered += b - lo;
      hi = std::max(hi, b);
    }
    SpanTotals& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_s += s.end - s.start;
    t.self_s += (s.end - s.start) - covered;
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f.precision(9);
  for (const Span& s : spans) {
    f << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
      << ",\"start_s\":" << s.start << ",\"end_s\":" << s.end
      << ",\"parent\":" << s.parent << "}\n";
  }
  if (!f) throw std::runtime_error("short write to " + path);
}

Pct percentile(std::vector<double> v, double q) {
  Pct p;
  p.n = static_cast<std::int64_t>(v.size());
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  p.value = v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  p.beyond = static_cast<std::int64_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), p.value));
  return p;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace servebench
