#include "serve.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <thread>

namespace servebench {

namespace dc = dsinfer::core;

Window::Count Window::count(bool measured) const {
  Count c;
  for (const auto& r : reqs) {
    if (r.measured != measured) continue;
    ++c.sent;
    c.failed += r.failed ? 1 : 0;
    c.cut += r.cut ? 1 : 0;
    c.succeeded += r.completed() ? 1 : 0;
  }
  return c;
}

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

struct Live {
  std::size_t rec = 0;
  std::int64_t slot = -1;
  std::int64_t seen = 0;  // tokens already timestamped
};

double kv_bytes(const dc::RaggedDecoder& dec) {
  double b = 0;
  for (std::int64_t r = 0; r < dec.rank_count(); ++r) {
    b += static_cast<double>(dec.arena(r).bytes_in_use());
  }
  return b;
}

}  // namespace

Window serve(dc::RaggedDecoder& dec, const Workload& wl, const Params& p,
             double window_s, std::uint64_t stream, Tracer* tr,
             const Clock& clk) {
  Window w;
  const double warmup_s = kWarmupS;
  w.start_s = warmup_s;
  w.window_s = window_s;
  const double end_s = warmup_s + window_s;
  const double w0 = clk.now();
  auto now = [&] { return clk.now() - w0; };

  // Client c's next request is due at client_due[c]: every client sends at
  // the start, then a think time after its previous request finished.
  std::vector<double> client_due(static_cast<std::size_t>(p.clients), 0.0);
  std::vector<std::int64_t> client_sent(static_cast<std::size_t>(p.clients), 0);
  std::deque<std::size_t> queue;
  std::vector<Live> live;
  bool measuring = false;
  // Traced only: the window's root span, each measured request's span, and
  // per-slot state before a step.
  std::int32_t root = -1;
  std::vector<std::int32_t> req_span;
  std::vector<std::int64_t> pre_len, pre_gen;
  std::int64_t prompt0 = 0, hit0 = 0, cow0 = 0, evict0 = 0;

  auto traced = [&](std::size_t i) { return tr && w.reqs[i].measured; };
  auto finish = [&](std::size_t i, double t, bool failed) {
    RequestRecord& r = w.reqs[i];
    r.done = true;
    r.failed = failed;
    if (traced(i)) tr->close(req_span[i], w0 + t);
    const auto c = static_cast<std::size_t>(r.req.client);
    client_due[c] = t + wl.think_s(r.req.client, client_sent[c], stream);
  };
  auto keep_output = [&](const Live& l) {
    RequestRecord& r = w.reqs[l.rec];
    const auto& toks = dec.tokens(l.slot);
    r.output.assign(toks.begin() + static_cast<std::ptrdiff_t>(r.req.prompt.size()),
                    toks.end());
  };
  // Timestamps the tokens a live request gained; retires it when finished.
  // Returns true when the request left the live set.
  auto collect = [&](Live& l, double t) {
    RequestRecord& r = w.reqs[l.rec];
    const std::int64_t g = dec.generated(l.slot);
    for (; l.seen < g; ++l.seen) r.token_times.push_back(t);
    if (!dec.finished(l.slot)) return false;
    keep_output(l);
    const double s0 = clk.now();
    dec.retire(l.slot);
    if (traced(l.rec)) {
      tr->add("core.retire", r.req.id, req_span[l.rec], s0, clk.now());
    }
    finish(l.rec, now(), false);
    return true;
  };
  // Retires every live request unfinished: failed, or cut at the end.
  auto end_live = [&](double t, bool failed) {
    for (auto& l : live) {
      keep_output(l);
      dec.retire(l.slot);
      finish(l.rec, t, failed);
      w.reqs[l.rec].cut = !failed;
    }
    live.clear();
  };

  for (;;) {
    const double t = now();
    if (t >= end_s) {  // the window is over: cut what is still running
      end_live(t, /*failed=*/false);
      for (auto i : queue) w.reqs[i].cut = true;
      queue.clear();
      break;
    }
    if (!measuring && t >= warmup_s) {
      measuring = true;
      w.warmup_wall_s = t;
      prompt0 = dec.prompt_tokens();
      hit0 = dec.prefix_hit_tokens();
      cow0 = dec.arena().cow_splits();
      evict0 = dec.arena().evictions();
      if (tr) root = tr->open("serve.window", -1, -1, clk.now());
    }
    // Generator: clients whose request is due send it to the FIFO queue.
    for (std::int64_t c = 0; c < p.clients; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      if (client_due[ci] > t) continue;
      RequestRecord rec;
      rec.req = wl.request(c, client_sent[ci]++, stream);
      rec.req.id = static_cast<std::int64_t>(w.reqs.size());
      rec.req.due_s = client_due[ci];
      rec.measured = rec.req.due_s >= warmup_s;
      client_due[ci] = kNever;
      if (rec.measured) w.gen_lag_ms.push_back((t - rec.req.due_s) * 1e3);
      w.reqs.push_back(std::move(rec));
      req_span.push_back(traced(w.reqs.size() - 1)
                             ? tr->open("request", w.reqs.back().req.id, root,
                                        w0 + w.reqs.back().req.due_s)
                             : -1);
      queue.push_back(w.reqs.size() - 1);
    }

    // FIFO admission while the head of the queue can be admitted.
    while (!queue.empty()) {
      const std::size_t i = queue.front();
      RequestRecord& r = w.reqs[i];
      const auto P = static_cast<std::int64_t>(r.req.prompt.size());
      if (!dec.fits(P, r.req.max_new)) {
        queue.pop_front();
        finish(i, now(), true);
        continue;
      }
      const double c0 = clk.now();
      const bool ok = dec.can_admit(r.req.prompt, r.req.max_new);
      if (r.measured) {
        ++w.admit_attempts;
        w.admit_refused += ok ? 0 : 1;
      }
      if (traced(i)) tr->add("core.can_admit", r.req.id, req_span[i], c0, clk.now());
      if (!ok) {
        if (live.empty()) {  // nothing will ever free pages for it
          queue.pop_front();
          finish(i, now(), true);
          continue;
        }
        break;
      }
      queue.pop_front();
      r.admit_start = now();
      std::int64_t slot = -1;
      try {
        slot = dec.admit(r.req.prompt, r.req.max_new);
      } catch (const std::exception&) {
        slot = -1;
      }
      r.admit_end = now();
      if (slot < 0) {
        finish(i, r.admit_end, true);
        continue;
      }
      if (r.measured) {
        w.queue_wait_ms.push_back((r.admit_start - r.req.due_s) * 1e3);
        w.admit_ms.push_back((r.admit_end - r.admit_start) * 1e3);
      }
      if (traced(i)) {
        tr->add("queue.wait", r.req.id, req_span[i], w0 + r.req.due_s,
                w0 + r.admit_start);
        tr->add("core.admit", r.req.id, req_span[i], w0 + r.admit_start,
                w0 + r.admit_end);
        Shape s;
        s.admit = true;
        s.wall_s = r.admit_end - r.admit_start;
        const std::int64_t rows = dec.last_step_prefill_rows();
        const std::int64_t start = P - dec.prefill_remaining(slot) - rows;
        for (std::int64_t k = 0; k < rows; ++k) {
          s.slots.push_back(static_cast<std::int32_t>(slot));
          s.positions.push_back(static_cast<std::int32_t>(start + k));
        }
        s.sample_rows = dec.generated(slot);
        w.shapes.push_back(std::move(s));
      }
      Live l{i, slot, 0};
      if (!collect(l, r.admit_end)) live.push_back(l);
    }

    // Nothing live means nothing queued either: wait for the next client
    // to send, or stop when no client ever will.
    if (live.empty()) {
      const double next = *std::min_element(client_due.begin(), client_due.end());
      if (next == kNever) break;
      const double wait = std::min(next, end_s) - now();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      continue;
    }

    const bool trace_step = tr && measuring;
    if (trace_step) {  // per-slot state before the step, in slot (row) order
      std::sort(live.begin(), live.end(),
                [](const Live& a, const Live& b) { return a.slot < b.slot; });
      pre_len.clear();
      pre_gen.clear();
      for (const auto& l : live) {
        pre_len.push_back(dec.arena().seq_len(l.slot));
        pre_gen.push_back(dec.generated(l.slot));
      }
    }
    const double s0 = now();
    bool ok = true;
    try {
      dec.step();
    } catch (const std::exception&) {
      ok = false;
    }
    const double s1 = now();
    if (!ok) {
      end_live(s1, /*failed=*/true);
      continue;
    }
    if (measuring) {
      w.step_ms.push_back((s1 - s0) * 1e3);
      w.step_rows.push_back(static_cast<double>(dec.last_step_prefill_rows() +
                                                dec.last_step_decode_rows()));
      w.step_prefill_rows.push_back(
          static_cast<double>(dec.last_step_prefill_rows()));
    }
    if (trace_step) {
      tr->add("core.step", -1, root, w0 + s0, w0 + s1);
      const double k0 = clk.now();
      Shape s;
      s.wall_s = s1 - s0;
      for (std::size_t j = 0; j < live.size(); ++j) {
        const std::int64_t len = dec.arena().seq_len(live[j].slot);
        for (std::int64_t pos = pre_len[j]; pos < len; ++pos) {
          s.slots.push_back(static_cast<std::int32_t>(live[j].slot));
          s.positions.push_back(static_cast<std::int32_t>(pos));
        }
        if (dec.generated(live[j].slot) > pre_gen[j]) ++s.sample_rows;
      }
      w.shapes.push_back(std::move(s));
      const auto& a = dec.arena();
      const auto used = static_cast<double>(a.pages_in_use());
      w.pages_in_use.push_back(used);
      if (used > 0) {
        w.reserved_over_used.push_back(
            static_cast<double>(dec.committed_pages()) / used);
      }
      w.kv_bytes_peak = std::max(w.kv_bytes_peak, kv_bytes(dec));
      tr->add("kv.read", -1, root, k0, clk.now());
    }
    std::erase_if(live, [&](Live& l) { return collect(l, s1); });
  }

  if (tr && root >= 0) tr->close(root, clk.now());
  for (const auto& r : w.reqs) {
    for (double tt : r.token_times) {
      w.tokens_in_window += (tt >= warmup_s && tt < end_s) ? 1 : 0;
    }
  }
  if (measuring) {
    w.prompt_tokens = dec.prompt_tokens() - prompt0;
    w.prefix_hit_tokens = dec.prefix_hit_tokens() - hit0;
    w.cow_splits = dec.arena().cow_splits() - cow0;
    w.evictions = dec.arena().evictions() - evict0;
  }
  return w;
}

}  // namespace servebench
