// DES twin of the fleet: the functional router's own event loop
// (detail::run_fleet — routing, breakers, hedging, failover, backpressure,
// attribution) run over *synthetic* replicas instead of real decoders.
// There is one copy of the fleet protocol; only the replica differs. The synthetic replica implements ReplicaBase with remaining-token
// counters, the chunked-prefill budget in arena slot order with the arena's
// LIFO free list, the speculative-decode Bresenham advance, a half-capacity
// batch lane at degraded_factor and the same refundable load ledger, and it
// moves its clock exactly like Replica::process_one, priced by the same
// core::IterationCost. With tracing on, a twin run emits the router's trace
// instants and spans, like FleetRouter::run_trace.
//
// Differences from the functional fleet, by design:
//   * No engines, no KV, no tokens: a served request's `tokens` is a
//     placeholder of the right LENGTH (prompt + new_tokens zeros) so the
//     shared accounting checker and summaries work; contents are meaningless.
//     Every request fits (no kArenaPages sheds), no replica ever holds a
//     prefix (prefix-affinity routes by hash alone), and sequences never stop
//     early.
//   * Engine-level fault injection (util::FaultInjector) is not modeled —
//     only the scheduled ReplicaFault timeline (crash/stall/straggle) — so
//     the engine fault and retry counters stay 0.
//   * No SLO watchdog, flight recorder or metrics feed: those stay with
//     FleetRouter::run_trace.
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/router.h"

namespace dsinfer::fleet {

// Simulates the trace through the fleet twin. Validates the spec like
// FleetRouter (throws core::ConfigException on the first error); requests
// are not validated.
FleetResult simulate_fleet(const FleetSpec& spec,
                           const std::vector<core::TimedRequest>& requests,
                           std::vector<ReplicaFault> faults = {},
                           std::uint64_t seed = 0x5eed);

}  // namespace dsinfer::fleet
