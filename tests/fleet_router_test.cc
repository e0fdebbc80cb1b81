// Fleet router suite (ISSUE 6, ctest label `fleet`): routing policies over
// replica load views, the per-replica circuit breaker state machine, SLO
// classes and backpressure sheds, hedging with first-wins cancellation, and
// single-replica equivalence with the continuous-batching server.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/engine_spec.h"
#include "core/server.h"
#include "fleet/fleet_spec.h"
#include "fleet/fleet_sim.h"
#include "fleet/load_harness.h"
#include "fleet/router.h"

namespace dsinfer::fleet {
namespace {

using core::SloClass;
using core::TimedRequest;
using Outcome = core::RequestStats::Outcome;

core::ServeSpec serve_spec(std::int64_t max_batch = 4) {
  core::ServerOptions o;
  o.engine.policy = kernels::KernelPolicy::optimized_large_batch();
  o.engine.max_batch = 8;
  o.engine.max_seq = 64;
  o.scheduler = core::Scheduler::kContinuous;
  o.max_batch = max_batch;
  o.virtual_service.enabled = true;
  return core::ServeSpec::from_options(model::tiny_gpt(64, 2, 4), o);
}

TimedRequest req(std::int64_t id, std::vector<std::int32_t> prompt,
                 std::int64_t new_tokens, double arrival,
                 SloClass slo = SloClass::kLatency) {
  TimedRequest r;
  r.id = id;
  r.prompt = std::move(prompt);
  r.new_tokens = new_tokens;
  r.arrival_s = arrival;
  r.slo = slo;
  return r;
}

TEST(RouteChoose, LeastOutstandingPicksArgminAndBreaksTiesLow) {
  FleetOptions opts;
  Rng rng(1);
  std::vector<ReplicaLoadView> views = {
      {true, 3.0}, {true, 1.0}, {true, 1.0}, {false, 0.0}};
  EXPECT_EQ(route_choose(RoutePolicy::kLeastOutstanding, opts, views, 0, -1,
                         rng),
            1);
  // Excluding the winner falls to the tied twin, never the open breaker.
  EXPECT_EQ(route_choose(RoutePolicy::kLeastOutstanding, opts, views, 0, 1,
                         rng),
            2);
}

TEST(RouteChoose, ReturnsMinusOneWhenNothingDispatchable) {
  FleetOptions opts;
  Rng rng(1);
  std::vector<ReplicaLoadView> views = {{false, 0.0}, {false, 0.0}};
  for (auto p : {RoutePolicy::kLeastOutstanding, RoutePolicy::kPowerOfTwo,
                 RoutePolicy::kPrefixAffinity}) {
    EXPECT_EQ(route_choose(p, opts, views, 7, -1, rng), -1);
  }
  // A single dispatchable replica that is also excluded: still nothing.
  views[0].dispatchable = true;
  EXPECT_EQ(route_choose(RoutePolicy::kPowerOfTwo, opts, views, 7, 0, rng),
            -1);
}

TEST(RouteChoose, PowerOfTwoOnlyPicksDispatchable) {
  FleetOptions opts;
  Rng rng(9);
  std::vector<ReplicaLoadView> views = {
      {true, 5.0}, {false, 0.0}, {true, 2.0}};
  for (int i = 0; i < 64; ++i) {
    const auto r = route_choose(RoutePolicy::kPowerOfTwo, opts, views, 0, -1,
                                rng);
    ASSERT_TRUE(r == 0 || r == 2);
  }
}

TEST(RouteChoose, PrefixAffinityPinsHomeUntilOverloaded) {
  FleetOptions opts;
  opts.affinity_spill = 2.0;
  Rng rng(4);
  std::vector<ReplicaLoadView> views = {{true, 0.1}, {true, 0.1}, {true, 0.1}};
  const std::vector<std::int32_t> prompt = {42, 43, 44, 45};
  const auto key = prefix_hash(prompt, 4);
  const auto home = static_cast<std::int64_t>(key % 3);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(route_choose(RoutePolicy::kPrefixAffinity, opts, views, key, -1,
                           rng),
              home);
  }
  // Overload the home well past spill x mean: traffic spills elsewhere.
  views[static_cast<std::size_t>(home)].outstanding_s = 100.0;
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(route_choose(RoutePolicy::kPrefixAffinity, opts, views, key, -1,
                           rng),
              home);
  }
}

TEST(RouteChoose, PrefixAffinityPrefersWarmReplicaUnderSpillGuard) {
  // ISSUE 7: a replica whose KV cache actually holds the request's prefix
  // outranks the hash home — until it is overloaded or excluded.
  FleetOptions opts;
  opts.affinity_spill = 2.0;
  Rng rng(3);
  std::vector<ReplicaLoadView> views = {{true, 1.0}, {true, 1.0}, {true, 1.0}};
  views[2].prefix_warm = true;
  for (std::uint64_t key : {0ull, 1ull, 2ull}) {  // every hash home loses
    EXPECT_EQ(route_choose(RoutePolicy::kPrefixAffinity, opts, views, key, -1,
                           rng),
              2);
  }
  // Overloaded warm replica (10 > spill x mean = 8): back to the hash home.
  views[2].outstanding_s = 10.0;
  EXPECT_EQ(route_choose(RoutePolicy::kPrefixAffinity, opts, views, 0, -1,
                         rng),
            0);
  // Warm but excluded (hedge twin / failover source) never wins either.
  views[2].outstanding_s = 1.0;
  EXPECT_EQ(route_choose(RoutePolicy::kPrefixAffinity, opts, views, 0, 2,
                         rng),
            0);
}

TEST(PrefixHash, DependsOnlyOnLeadingTokens) {
  const std::vector<std::int32_t> a = {1, 2, 3, 4, 99};
  const std::vector<std::int32_t> b = {1, 2, 3, 4, -7};
  EXPECT_EQ(prefix_hash(a, 4), prefix_hash(b, 4));
  EXPECT_NE(prefix_hash(a, 5), prefix_hash(b, 5));
}

TEST(BreakerMachine, ClosedOpenHalfOpenClosed) {
  Breaker b;
  EXPECT_TRUE(b.dispatchable());
  EXPECT_FALSE(b.on_failure(1.0, 2));  // 1 of 2
  EXPECT_TRUE(b.dispatchable());
  EXPECT_TRUE(b.on_failure(1.1, 2));  // trips
  EXPECT_EQ(b.state, Breaker::State::kOpen);
  EXPECT_FALSE(b.dispatchable());
  b.maybe_half_open(1.2, 0.5);  // cooldown not elapsed
  EXPECT_EQ(b.state, Breaker::State::kOpen);
  b.maybe_half_open(1.7, 0.5);
  EXPECT_EQ(b.state, Breaker::State::kHalfOpen);
  EXPECT_FALSE(b.dispatchable());  // trial traffic is probes, not requests
  b.on_success();
  EXPECT_EQ(b.state, Breaker::State::kClosed);
  EXPECT_TRUE(b.dispatchable());
  EXPECT_EQ(b.opens, 1);
  EXPECT_EQ(b.half_opens, 1);
  EXPECT_EQ(b.closes, 1);
}

TEST(BreakerMachine, HalfOpenFailureReopensAndRestartsCooldown) {
  Breaker b;
  ASSERT_TRUE(b.on_failure(0.0, 1));
  b.maybe_half_open(1.0, 1.0);
  ASSERT_EQ(b.state, Breaker::State::kHalfOpen);
  EXPECT_TRUE(b.on_failure(1.0, 1));  // trial fails: reopen
  EXPECT_EQ(b.state, Breaker::State::kOpen);
  EXPECT_EQ(b.opened_at_s, 1.0);
  EXPECT_EQ(b.opens, 2);
}

TEST(FleetRouter, SingleReplicaMatchesContinuousServerTokens) {
  // With one replica, no faults, and latency-class traffic, the fleet is the
  // continuous server: greedy tokens must be bit-identical.
  std::vector<TimedRequest> trace = {
      req(0, {10, 20}, 4, 0.0),   req(1, {30, 40, 50}, 2, 0.001),
      req(2, {1, 2, 3, 4}, 6, 0.002), req(3, {10, 21}, 3, 0.01),
      req(4, {7, 8, 9}, 5, 0.02),
  };
  core::InferenceServer server(serve_spec(), /*seed=*/5);
  const auto base = server.run_trace(trace);

  FleetSpec spec(serve_spec());
  spec.replicas(1);
  FleetRouter router(spec, /*seed=*/5);
  const auto fleet = router.run_trace(trace);

  ASSERT_EQ(fleet.stats.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_TRUE(base[i].served());
    ASSERT_TRUE(fleet.stats[i].base.served());
    EXPECT_EQ(fleet.stats[i].base.tokens, base[i].tokens)
        << "request " << base[i].id;
  }
  EXPECT_TRUE(check_accounting(fleet).empty()) << check_accounting(fleet);
}

TEST(FleetRouter, SpreadsSimultaneousLoadAcrossReplicas) {
  FleetSpec spec(serve_spec(2));
  spec.replicas(3);
  FleetRouter router(spec, 7);
  std::vector<TimedRequest> trace;
  for (std::int64_t i = 0; i < 9; ++i) {
    trace.push_back(req(i, {static_cast<std::int32_t>(10 + i), 3}, 4, 0.0));
  }
  const auto out = router.run_trace(trace);
  std::set<std::int64_t> used;
  for (const auto& s : out.stats) {
    ASSERT_TRUE(s.base.served());
    used.insert(s.replica);
  }
  EXPECT_EQ(used.size(), 3u);  // least-outstanding fans the burst out
  EXPECT_EQ(out.counters.served, 9);
  EXPECT_EQ(out.counters.dispatches, 9);
}

TEST(FleetRouter, PrefixAffinityKeepsHotPrefixTogether) {
  FleetSpec spec(serve_spec());
  spec.replicas(3).policy(RoutePolicy::kPrefixAffinity).affinity(4, 100.0);
  FleetRouter router(spec, 11);
  std::vector<TimedRequest> trace;
  const std::vector<std::int32_t> hot = {5, 6, 7, 8};
  for (std::int64_t i = 0; i < 6; ++i) {
    auto p = hot;
    p.push_back(static_cast<std::int32_t>(i));  // same 4-token prefix
    trace.push_back(req(i, std::move(p), 3, 0.05 * static_cast<double>(i)));
  }
  const auto out = router.run_trace(trace);
  std::set<std::int64_t> used;
  for (const auto& s : out.stats) {
    ASSERT_TRUE(s.base.served());
    used.insert(s.replica);
  }
  EXPECT_EQ(used.size(), 1u);  // one home replica owns the hot prefix
}

TEST(FleetRouter, QueueLimitShedsTypedPerClass) {
  FleetSpec spec(serve_spec(2));
  spec.replicas(1).queue_limits(/*latency=*/3, /*batch=*/1);
  FleetRouter router(spec, 3);
  std::vector<TimedRequest> trace;
  for (std::int64_t i = 0; i < 8; ++i) {
    trace.push_back(req(i, {4, 5}, 8, 0.0));  // burst: all at t=0
  }
  for (std::int64_t i = 8; i < 12; ++i) {
    trace.push_back(req(i, {4, 5}, 8, 0.0, SloClass::kBatch));
  }
  const auto out = router.run_trace(trace);
  std::int64_t lat_shed = 0, bat_shed = 0;
  for (const auto& s : out.stats) {
    if (s.base.outcome != Outcome::kShed) continue;
    EXPECT_EQ(s.reason, ShedReason::kQueueFull);
    (s.slo == SloClass::kBatch ? bat_shed : lat_shed)++;
  }
  EXPECT_EQ(lat_shed, 5);  // 8 arrivals into a 3-deep latency lane
  EXPECT_EQ(bat_shed, 3);  // 4 arrivals into a 1-deep batch lane
  EXPECT_EQ(out.counters.shed_queue_full, 8);
}

TEST(FleetRouter, BatchClassRidesDegradedLane) {
  FleetSpec spec(serve_spec());
  spec.replicas(1);
  FleetRouter router(spec, 13);
  const auto out = router.run_trace(
      {req(0, {3, 4, 5}, 4, 0.0, SloClass::kBatch),
       req(1, {3, 4, 5}, 4, 0.0, SloClass::kLatency)});
  ASSERT_TRUE(out.stats[0].base.served());
  ASSERT_TRUE(out.stats[1].base.served());
  EXPECT_TRUE(out.stats[0].base.degraded);
  EXPECT_EQ(out.stats[0].base.outcome, Outcome::kDegraded);
  EXPECT_FALSE(out.stats[1].base.degraded);
  EXPECT_EQ(out.counters.degraded, 1);

  const auto sum = summarize_fleet(out.stats);
  EXPECT_EQ(sum.all.requests, 2u);
  EXPECT_EQ(sum.latency.requests, 1u);
  EXPECT_EQ(sum.batch.requests, 1u);
}

TEST(FleetRouter, HedgeRescuesStragglerFirstWins) {
  FleetSpec spec(serve_spec());
  spec.replicas(2).hedge(true, /*delay=*/5e-3);
  FleetRouter router(spec, 17);
  // Replica 0 straggles 50x from the start; the lone request lands there
  // (tie-break), the hedge fires on replica 1 and wins the race.
  ReplicaFault slow;
  slow.replica = 0;
  slow.at_s = 0.0;
  slow.kind = ReplicaFault::Kind::kStraggle;
  slow.factor = 50.0;
  const auto out =
      router.run_trace({req(0, {9, 9, 9}, 8, 0.0)}, {slow});
  ASSERT_TRUE(out.stats[0].base.served());
  EXPECT_TRUE(out.stats[0].hedged);
  EXPECT_TRUE(out.stats[0].hedge_won);
  EXPECT_EQ(out.stats[0].replica, 1);
  EXPECT_EQ(out.counters.hedges, 1);
  EXPECT_EQ(out.counters.hedge_wins, 1);
  EXPECT_EQ(out.counters.hedge_cancels, 1);
}

TEST(FleetRouter, RejectsBadRequestsAndBadSpecs) {
  FleetSpec bad(serve_spec());
  bad.replicas(0);
  EXPECT_THROW(FleetRouter{bad}, core::ConfigException);

  FleetSpec ok(serve_spec());
  FleetRouter router(ok, 1);
  EXPECT_THROW(router.run_trace({req(0, {}, 3, 0.0)}), core::BadRequestError);
  auto r = req(1, {2}, 3, 0.0);
  r.new_tokens = 0;
  EXPECT_THROW(router.run_trace({r}), core::BadRequestError);
}

TEST(FleetRouter, StructuralKvShedIsTypedArenaPages) {
  // ISSUE 7: a request whose prompt + max_new page budget can never fit any
  // replica's pool is shed as kArenaPages at dispatch (counted in the typed
  // shed sum — run_trace's internal accounting check covers the new term),
  // while fitting requests keep serving.
  core::ServerOptions o;
  o.engine.policy = kernels::KernelPolicy::optimized_large_batch();
  o.engine.max_batch = 8;
  o.engine.max_seq = 64;
  o.engine.kv_page_tokens = 8;
  o.engine.kv_pages = 4;  // 32 token-rows per replica
  o.scheduler = core::Scheduler::kContinuous;
  o.max_batch = 4;
  o.virtual_service.enabled = true;
  FleetSpec spec(core::ServeSpec::from_options(model::tiny_gpt(64, 2, 4), o));
  spec.replicas(2);
  FleetRouter router(spec, 5);
  const std::vector<std::int32_t> big(30, 3);  // 30 + 10 = 5 pages > 4
  auto res =
      router.run_trace({req(0, big, 10, 0.0), req(1, {1, 2}, 2, 0.001)});
  EXPECT_EQ(res.stats[0].base.outcome, Outcome::kShed);
  EXPECT_EQ(res.stats[0].reason, ShedReason::kArenaPages);
  EXPECT_EQ(res.counters.shed_arena_pages, 1);
  EXPECT_TRUE(res.stats[1].base.served());
  EXPECT_EQ(std::string(shed_reason_name(ShedReason::kArenaPages)),
            "arena-pages");
}

TEST(FleetRouter, AdmissionEstimatePricesThePromptLikeTheTwin) {
  // With admission control on and a per-prompt-token prefill price, a
  // long-prompt request whose deadline covers its decode tokens but not
  // its prefill must be shed before dispatch — by the functional router and
  // by its DES twin alike. Estimates: decode-only 1 + 4 = 5 ms, with the
  // 40-token prompt 1 + 40 + 4 = 45 ms, against a 20 ms deadline.
  core::ServerOptions o;
  o.engine.policy = kernels::KernelPolicy::optimized_large_batch();
  o.engine.max_batch = 8;
  o.engine.max_seq = 64;
  o.scheduler = core::Scheduler::kContinuous;
  o.max_batch = 4;
  o.virtual_service.enabled = true;
  o.virtual_service.prefill_s = 1e-3;
  o.virtual_service.per_token_s = 1e-3;
  o.virtual_service.prefill_token_s = 1e-3;
  o.resilience.admission_control = true;
  FleetSpec spec(core::ServeSpec::from_options(model::tiny_gpt(64, 2, 4), o));

  auto long_prompt = req(0, std::vector<std::int32_t>(40, 3), 4, 0.0);
  long_prompt.deadline_s = 20e-3;
  auto short_prompt = req(1, {1, 2}, 4, 0.0);  // 1 + 2 + 4 = 7 ms: admitted
  short_prompt.deadline_s = 20e-3;
  const std::vector<TimedRequest> trace{long_prompt, short_prompt};

  const FleetResult functional = FleetRouter(spec, 3).run_trace(trace);
  const FleetResult twin = simulate_fleet(spec, trace, {}, 3);
  for (const FleetResult* res : {&functional, &twin}) {
    EXPECT_EQ(res->stats[0].base.outcome, Outcome::kShed);
    EXPECT_EQ(res->stats[0].reason, ShedReason::kAdmissionDeadline);
    EXPECT_EQ(res->counters.shed_deadline, 1);
    EXPECT_TRUE(res->stats[1].base.served());
  }
}

TEST(FleetRouter, WarmRoutingFollowsActualCacheContentsPastDeadHome) {
  // ISSUE 7 warm routing end-to-end: the hash home of a hot system prompt is
  // crashed, so the first request lands on a survivor and publishes the
  // prefix there. Every later same-prefix request must follow the *actual
  // cache contents* to that same survivor — not bounce between survivors the
  // way the cold power-of-two spill would.
  core::ServerOptions o;
  o.engine.policy = kernels::KernelPolicy::optimized_large_batch();
  o.engine.max_batch = 8;
  o.engine.max_seq = 64;
  o.engine.kv_page_tokens = 8;
  o.engine.kv_pages = 48;
  o.engine.kv_prefix_cache = true;
  o.scheduler = core::Scheduler::kContinuous;
  o.max_batch = 4;
  o.virtual_service.enabled = true;
  FleetSpec spec(core::ServeSpec::from_options(model::tiny_gpt(64, 2, 4), o));
  spec.replicas(3).policy(RoutePolicy::kPrefixAffinity);
  std::vector<std::int32_t> sys(16);
  for (std::size_t i = 0; i < sys.size(); ++i) {
    sys[i] = static_cast<std::int32_t>(1 + i);
  }
  const auto home = static_cast<std::int64_t>(
      prefix_hash(sys, spec.options().affinity_prefix) %
      static_cast<std::uint64_t>(3));
  std::vector<TimedRequest> trace;
  for (std::int64_t i = 0; i < 6; ++i) {
    auto p = sys;
    p.push_back(static_cast<std::int32_t>(40 + i));
    // Spaced far enough apart that each request completes before the next
    // arrives (and well after the dead home's breaker has opened).
    trace.push_back(req(i, std::move(p), 3, 0.05 + 0.05 * i));
  }
  FleetRouter router(spec, 9);
  auto res = router.run_trace(
      trace, {{home, 0.0, ReplicaFault::Kind::kCrash, 0.0, 1.0}});
  const auto first = res.stats[0].replica;
  ASSERT_GE(first, 0);
  EXPECT_NE(first, home);
  for (const auto& s : res.stats) {
    EXPECT_TRUE(s.base.served());
    EXPECT_EQ(s.replica, first);  // warm cache, not a random survivor
  }
}

TEST(LoadHarness, TraceIsDeterministicSkewedAndMixed) {
  FleetWorkloadSpec w;
  w.base_rate_hz = 400;
  w.duration_s = 0.5;
  w.seed = 21;
  const auto a = generate_fleet_trace(w);
  const auto b = generate_fleet_trace(w);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  std::size_t batch = 0, hot = 0;
  std::set<std::uint64_t> prefixes;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prompt, b[i].prompt);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    ASSERT_GE(a[i].arrival_s, 0.0);
    ASSERT_LT(a[i].arrival_s, w.duration_s);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
    }
    if (a[i].slo == SloClass::kBatch) {
      ++batch;
      EXPECT_EQ(a[i].deadline_s, core::kNoDeadline);
    } else {
      EXPECT_LT(a[i].deadline_s, core::kNoDeadline);
    }
    prefixes.insert(prefix_hash(a[i].prompt, w.prefix_len));
  }
  // The SLO mix and the hot-prefix skew both have to show up.
  EXPECT_GT(batch, 0u);
  EXPECT_LT(batch, a.size());
  // Hot prefixes collapse many requests onto few hashes: far fewer distinct
  // prefixes than requests.
  hot = prefixes.size();
  EXPECT_LT(hot, a.size() / 2);
}

TEST(LoadHarness, StandardChaosScheduleShapes) {
  const auto faults = standard_chaos_schedule(3, 1.0, 0.5);
  ASSERT_EQ(faults.size(), 3u);
  EXPECT_EQ(faults[0].kind, ReplicaFault::Kind::kCrash);
  EXPECT_EQ(faults[0].replica, 0);
  EXPECT_DOUBLE_EQ(faults[0].at_s, 0.5);
  EXPECT_EQ(standard_chaos_schedule(1, 1.0).size(), 1u);
}

}  // namespace
}  // namespace dsinfer::fleet
