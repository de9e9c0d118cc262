// Warm-started hijack computation: repair a converged legitimate-only route
// table into the joint (legit + attacker) equilibrium instead of re-running
// baseline convergence from scratch.
//
// Why this is sound: displaces() (bgp/policy.hpp) makes each AS's route
// preference a strict order over (LOCAL_PREF, length, origin), and the
// engines break remaining full ties by lowest via — so per-AS preference is
// a strict *total* order over distinct candidates, under which the
// Gao–Rexford stable state is unique (the property audit_runner enforces by
// requiring exact inter-engine agreement). Any sound relaxation that reaches
// a stable state therefore reaches *the* state EquilibriumEngine computes
// cold — warm and cold results are bit-identical, which the differential
// tests in tests/warm_start_test.cpp pin across the audit seed matrix.
//
// The repair is a worklist relaxation seeded at the attacker: inject the
// bogus self-route, then propagate route changes along the export rules
// until quiescent. Most of the topology keeps its baseline route untouched,
// which is where the speedup comes from (see BENCH_warmstart.json). It runs
// the same policy as the cold engines because it calls the same rules in
// bgp/policy.hpp: selection_key (route_rank, then the legit tie, then the
// lowest via) for every preference compare, exports_to for the per-pop
// offers (re-selection spells the same test from the receiver's side),
// first_hop_filtered for the §IV stub filter and record_route_change for
// provenance. It keeps only its scheduler and data layout.
#pragma once

#include <cstdint>

#include "bgp/policy.hpp"
#include "bgp/types.hpp"
#include "topology/as_graph.hpp"

namespace bgpsim {

/// Repair `table` — which must hold the converged *legitimate-only* routing
/// state for `target` (as produced by EquilibriumEngine::compute with no
/// validators) — into the joint hijack equilibrium for `attacker` announcing
/// the same prefix with seed path length `attacker_seed_len` (2 models a
/// forged-origin announcement).
///
/// The legitimate-only baseline is validator-independent (validators only
/// drop attacker-origin routes), so one stored table serves every deployment
/// set passed here.
///
/// Returns true when the relaxation reached quiescence within its work
/// budget; `table` then equals the cold compute_hijack result exactly.
/// Returns false when the budget was exhausted (pathological withdrawal
/// churn) — `table` is then unspecified and the caller must fall back to a
/// cold computation. The budget is generous (dozens of pops per AS); no
/// fallback has been observed on generated topologies, but correctness must
/// not depend on that.
///
/// `prov`, when given, records infection edges (adopt/cure/blocked; see
/// obs/provenance.hpp) as the relaxation runs. The warm path has no
/// generation clock, so the edge `generation` field is always 0; because the
/// stable state is unique, the *final* parent per AS derived from these
/// edges matches a cold traced run exactly (asserted in
/// tests/provenance_test.cpp). Recording never changes repair decisions.
bool warm_hijack_repair(const AsGraph& graph, const PolicyConfig& config,
                        AsId target, AsId attacker,
                        std::uint16_t attacker_seed_len,
                        const ValidatorSet* validators, RouteTable& table,
                        obs::ProvenanceRecorder* prov = nullptr);

}  // namespace bgpsim
