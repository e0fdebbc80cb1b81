// Replica/DES clock parity (ctest label `spec_decode`): the functional fleet
// replica and the fleet_sim DES twin price admits and fused iterations with
// the same core::IterationCost, so on a fault-free run every request must
// start and finish at the same virtual instant on both substrates — with
// chunked prefill, speculative decode and both SLO lanes in play — and,
// since the twin runs the router's own event loop, so must a chaos run with
// hedging across three replicas.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/engine_spec.h"
#include "fleet/fleet_sim.h"
#include "fleet/load_harness.h"
#include "fleet/router.h"

namespace dsinfer::fleet {
namespace {

using core::SloClass;
using core::TimedRequest;

FleetSpec parity_spec() {
  core::ServerOptions o;
  o.engine.policy = kernels::KernelPolicy::optimized_large_batch();
  o.engine.max_batch = 8;
  o.engine.max_seq = 64;  // strip KV: every request below fits a slot
  o.engine.prefill_chunk_tokens = 8;
  o.engine.spec_draft_tokens = 2;
  o.engine.spec_draft_layers = 1;
  o.engine.spec_acceptance = 0.6;
  o.scheduler = core::Scheduler::kContinuous;
  o.max_batch = 4;
  o.virtual_service.enabled = true;
  o.virtual_service.prefill_token_s = 2e-4;
  FleetSpec spec(core::ServeSpec::from_options(model::tiny_gpt(64, 2, 4), o));
  spec.replicas(1).queue_limits(1000, 1000);
  return spec;
}

// Mixed prompt lengths (some inside one chunk, most spanning several),
// ragged budgets, every third request batch-class, arrivals close enough
// that admits, chunks and decode rows of both lanes interleave.
std::vector<TimedRequest> parity_trace() {
  std::vector<TimedRequest> out;
  for (std::int64_t i = 0; i < 18; ++i) {
    TimedRequest r;
    r.id = i;
    const std::int64_t plen = 3 + (i * 7) % 29;
    for (std::int64_t t = 0; t < plen; ++t) {
      r.prompt.push_back(static_cast<std::int32_t>(1 + (i * 11 + t * 5) % 60));
    }
    r.new_tokens = 2 + (i * 5) % 11;
    r.arrival_s = 1.7e-3 * static_cast<double>(i);
    r.slo = i % 3 == 2 ? SloClass::kBatch : SloClass::kLatency;
    out.push_back(std::move(r));
  }
  return out;
}

TEST(FleetCostParity, ReplicaAndTwinChargeTheSameClock) {
  const FleetSpec spec = parity_spec();
  const auto trace = parity_trace();
  const FleetResult functional = FleetRouter(spec, 7).run_trace(trace);
  const FleetResult twin = simulate_fleet(spec, trace, {}, 7);
  ASSERT_EQ(functional.stats.size(), trace.size());
  ASSERT_EQ(twin.stats.size(), trace.size());
  const auto n = static_cast<std::int64_t>(trace.size());
  EXPECT_EQ(functional.counters.served, n);
  EXPECT_EQ(twin.counters.served, n);
  EXPECT_GT(functional.counters.degraded, 0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& f = functional.stats[i].base;
    const auto& t = twin.stats[i].base;
    EXPECT_EQ(f.degraded, t.degraded) << "request " << i;
    EXPECT_NEAR(f.start_s, t.start_s, 1e-9) << "request " << i;
    EXPECT_NEAR(f.finish_s, t.finish_s, 1e-9) << "request " << i;
  }
}

// The twin runs the router's own event loop, so beyond one replica it must
// still make every routing, hedging, failover and breaker decision the
// router makes: three replicas, power-of-two routing, hedging and the
// standard crash/straggle/stall schedule over a bursty mixed-class trace.
TEST(FleetCostParity, TwinMatchesRouterUnderChaosAndHedging) {
  FleetSpec spec = parity_spec();
  spec.replicas(3).policy(RoutePolicy::kPowerOfTwo).hedge(true, 5e-3);
  FleetWorkloadSpec w;
  w.base_rate_hz = 600;
  w.duration_s = 0.3;
  w.seed = 51;
  const auto trace = generate_fleet_trace(w);
  ASSERT_EQ(trace.size(), 267u);
  const auto faults = standard_chaos_schedule(3, 0.3);
  const FleetResult functional = FleetRouter(spec, 7).run_trace(trace, faults);
  const FleetResult twin = simulate_fleet(spec, trace, faults, 7);
  ASSERT_EQ(functional.stats.size(), trace.size());
  ASSERT_EQ(twin.stats.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& f = functional.stats[i];
    const auto& t = twin.stats[i];
    EXPECT_EQ(f.base.outcome, t.base.outcome) << "request " << i;
    EXPECT_EQ(f.replica, t.replica) << "request " << i;
    EXPECT_EQ(f.hedged, t.hedged) << "request " << i;
    EXPECT_EQ(f.hedge_won, t.hedge_won) << "request " << i;
    EXPECT_NEAR(f.base.start_s, t.base.start_s, 1e-9) << "request " << i;
    EXPECT_NEAR(f.base.finish_s, t.base.finish_s, 1e-9) << "request " << i;
  }
  const auto& fc = functional.counters;
  const auto& tc = twin.counters;
  EXPECT_EQ(fc.served, tc.served);
  EXPECT_EQ(fc.failovers, tc.failovers);
  EXPECT_EQ(fc.hedges, tc.hedges);
  EXPECT_EQ(fc.breaker_opens, tc.breaker_opens);
  // The run must exercise what it pins: a crash, failovers and hedges.
  EXPECT_EQ(fc.crashes, 1);
  EXPECT_GT(fc.failovers, 0);
  EXPECT_GT(fc.hedges, 0);
}

}  // namespace
}  // namespace dsinfer::fleet
