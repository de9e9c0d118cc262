#include "hijack/hijack_simulator.hpp"

#include "bgp/warm_repair.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bgpsim {

HijackSimulator::HijackSimulator(const AsGraph& graph, SimConfig config)
    : graph_(graph), config_(std::move(config)),
      equilibrium_(graph_, config_.policy) {
  if (obs::active_config().provenance) {
    config_prov_ = std::make_unique<obs::ProvenanceRecorder>();
  }
}

obs::ProvenanceRecorder* HijackSimulator::arm_trace() {
  obs::ProvenanceRecorder* prov =
      external_prov_ != nullptr ? external_prov_ : config_prov_.get();
  if (prov != nullptr) prov->begin_attack();
  last_prov_ = prov;
  equilibrium_.set_provenance(prov);
  // attack_ex arms the generation engine itself when it runs it, so the
  // lazily constructed engine cannot miss the arming.
  return prov;
}

void HijackSimulator::set_validators(std::optional<ValidatorSet> validators) {
  BGPSIM_REQUIRE(!validators || validators->size() == graph_.num_ases(),
                 "validator set size mismatch");
  validators_ = std::move(validators);
}

void HijackSimulator::attach_baseline(
    std::shared_ptr<const store::BaselineStore> baselines) {
  baselines_ = std::move(baselines);
}

bool HijackSimulator::try_warm_attack(AsId target, AsId attacker,
                                      std::uint16_t attacker_seed_len,
                                      const ValidatorSet* validators) {
  if (!baselines_) return false;
  const RouteTable* baseline = baselines_->find(target);
  if (baseline == nullptr) return false;
  BGPSIM_REQUIRE(baseline->routes.size() == graph_.num_ases(),
                 "attached baseline does not match the topology");
  table_ = *baseline;
  if (!warm_hijack_repair(graph_, config_.policy, target, attacker,
                          attacker_seed_len, validators, table_, last_prov_)) {
    return false;  // budget tripped; caller reconverges cold
  }
  BGPSIM_COUNTER_ADD("warm.attacks", 1);
  return true;
}

ExtendedAttackResult HijackSimulator::attack_ex(AsId target, AsId attacker,
                                                const AttackOptions& options,
                                                const RpkiContext* rpki) {
  BGPSIM_REQUIRE(target < graph_.num_ases(), "target out of range");
  BGPSIM_REQUIRE(attacker < graph_.num_ases(), "attacker out of range");
  BGPSIM_REQUIRE(target != attacker, "attacker must differ from target");
  BGPSIM_REQUIRE(options.history == nullptr ||
                     options.history->watched < graph_.num_ases(),
                 "watched AS out of range");

  last_attack_warm_ = false;
  obs::ProvenanceRecorder* prov = arm_trace();
  ExtendedAttackResult result;
  const bool sub_prefix = options.kind == AttackKind::SubPrefix;

  // What goes on the wire.
  if (rpki != nullptr && rpki->allocation != nullptr) {
    const Prefix& owned = rpki->allocation->primary(target);
    result.announced =
        (sub_prefix && owned.length() < 32) ? owned.split().first : owned;
  } else {
    // No allocation: a representative prefix (exact) or more-specific.
    const Prefix base = Prefix::make(0x0a000000, 16);  // 10.0.0.0/16 stand-in
    result.announced = sub_prefix ? base.split().first : base;
  }
  result.claimed_origin =
      options.forged_origin ? graph_.asn(target) : graph_.asn(attacker);

  // Does the deployed origin validation fire? With an RPKI context it only
  // fires on Invalid announcements; without one it is all-knowing.
  if (rpki != nullptr && rpki->roas != nullptr) {
    result.validity = rpki->roas->validate(result.announced, result.claimed_origin);
    result.validators_engaged =
        validators_.has_value() && result.validity == RpkiValidity::Invalid;
  } else {
    result.validity = RpkiValidity::Invalid;
    result.validators_engaged = validators_.has_value();
  }
  const ValidatorSet* validators =
      result.validators_engaged ? &*validators_ : nullptr;

  const AsId forged_tail = options.forged_origin ? target : kInvalidAs;
  const auto attacker_seed_len =
      static_cast<std::uint16_t>(options.forged_origin ? 2 : 1);
  // A trace or a decision history is only observable on the generation
  // engine, so asking for either one runs the attack there.
  const bool on_generation = config_.engine == EngineKind::Generation ||
                             options.trace != nullptr ||
                             options.history != nullptr;

  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("attack_injected");
               ev.u64("target_asn", graph_.asn(target));
               ev.u64("attacker_asn", graph_.asn(attacker));
               ev.str("kind", sub_prefix ? "subprefix" : "exact");
               ev.boolean("forged_origin", options.forged_origin);
               ev.str("engine", on_generation ? "generation" : "equilibrium");
               ev.boolean("validators", result.validators_engaged);
               ev.emit());

  if (on_generation) {
    if (!generation_) generation_.emplace(graph_, config_.policy);
    GenerationEngine& engine = *generation_;
    engine.set_provenance(prov);
    // The legitimate phase is validator-independent and records no
    // provenance, so a stored seed reproduces it exactly; a decision history
    // has to watch it run.
    const store::GenerationSeed* seed =
        baselines_ && !sub_prefix && options.history == nullptr
            ? baselines_->find_seed(target)
            : nullptr;
    if (seed != nullptr) {
      engine.load_converged(*baselines_->find(target), seed->vias);
      result.generations = seed->generations;
      BGPSIM_COUNTER_ADD("engine.legit_seeded", 1);
    } else {
      engine.reset();
    }
    if (options.history != nullptr) options.history->snapshots.clear();
    engine.set_decision_watch(
        options.history != nullptr ? options.history->watched : kInvalidAs,
        options.history);
    // The bogus more-specific never competes with the covering legitimate
    // route: a single-origin propagation decides who installs it.
    if (!sub_prefix && seed == nullptr) {
      result.generations =
          engine.announce(target, Origin::Legit, validators).generations;
    }
    result.generations += engine.announce(attacker, Origin::Attacker, validators,
                                          options.trace, forged_tail)
                              .generations;
    engine.set_decision_watch(kInvalidAs, nullptr);
    engine.export_routes(table_);
  } else if (sub_prefix) {
    equilibrium_.compute_single(attacker, Origin::Attacker, attacker_seed_len,
                                validators, table_);
  } else if (try_warm_attack(target, attacker, attacker_seed_len, validators)) {
    last_attack_warm_ = true;
  } else {
    // Drop any edges a budget-tripped warm repair recorded: the cold engine
    // re-derives the full infection history from scratch.
    if (prov != nullptr) prov->begin_attack();
    equilibrium_.compute_hijack(target, attacker, validators, table_,
                                attacker_seed_len);
  }

  static_cast<AttackResult&>(result) =
      summarize(target, attacker, result.generations);
  return result;
}

AttackResult HijackSimulator::summarize(AsId target, AsId attacker,
                                        std::uint32_t generations) const {
  BGPSIM_TRACE_SPAN(attack_span, "hijack.attack");
  AttackResult result;
  result.target = target;
  result.attacker = attacker;
  result.generations = generations;
  for (AsId v = 0; v < graph_.num_ases(); ++v) {
    const Route& route = table_.routes[v];
    if (!route.valid()) continue;
    ++result.routed_ases;
    if (route.origin == Origin::Attacker && v != attacker) {
      ++result.polluted_ases;
      result.polluted_address_space += graph_.address_space(v);
    }
  }
  const auto total = graph_.total_address_space();
  result.polluted_address_fraction =
      total == 0 ? 0.0
                 : static_cast<double>(result.polluted_address_space) /
                       static_cast<double>(total);

  BGPSIM_COUNTER_ADD("hijack.attacks", 1);
  // Campaign progress: every attack runs through attack_ex and ends here,
  // so this is the one place a finished attack is counted.
  BGPSIM_PROGRESS_TICK();
  BGPSIM_GAUGE_SET("mem.rib_routes", table_.routes.size());
  BGPSIM_GAUGE_SET("mem.rib_bytes_est", table_.memory_bytes());
  BGPSIM_HISTOGRAM_OBSERVE(
      "hijack.polluted_ases",
      ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 24),
      result.polluted_ases);

  const bool traced = last_prov_ != nullptr;
  const std::uint64_t prov_dropped = traced ? last_prov_->dropped() : 0;
#if !defined(BGPSIM_OBS_DISABLED)
  if (traced) {
    BGPSIM_COUNTER_ADD("provenance.traced_attacks", 1);
    BGPSIM_COUNTER_ADD("provenance.edges_recorded", last_prov_->committed());
    if (prov_dropped != 0) {
      BGPSIM_COUNTER_ADD("provenance.edges_dropped", prov_dropped);
    }
    // Pollution reach per traced attack: hops from the bogus origin to each
    // polluted AS. path_len is absolute, so subtract the attacker's seed
    // length (1, or 2 for forged-origin) — depth 1 = attacker's neighbor.
    const std::uint16_t seed_len = table_.routes[attacker].path_len;
    for (AsId v = 0; v < graph_.num_ases(); ++v) {
      const Route& route = table_.routes[v];
      if (route.origin != Origin::Attacker || v == attacker) continue;
      BGPSIM_HISTOGRAM_OBSERVE(
          "engine.infection_depth",
          ::bgpsim::obs::HistogramSpec::linear(0.0, 64.0, 64),
          route.path_len - seed_len);
    }
    // Narrate the kept edges — to the dedicated BGPSIM_PROVENANCE=<path>
    // sink when one is configured, otherwise into the main event log.
    ::bgpsim::obs::EventLogSink* psink = ::bgpsim::obs::provenance_sink();
    if (psink != nullptr || ::bgpsim::obs::eventlog_enabled()) {
      const ::bgpsim::obs::InfectionEdge* edges = last_prov_->edges();
      const std::uint64_t kept = last_prov_->committed();
      for (std::uint64_t i = 0; i < kept; ++i) {
        const ::bgpsim::obs::InfectionEdge& e = edges[i];
        ::bgpsim::obs::EventRecord ev("infection_edge", psink);
        ev.u64("target_asn", graph_.asn(target));
        ev.u64("attacker_asn", graph_.asn(attacker));
        ev.str("kind", to_string(::bgpsim::obs::edge_kind(e)));
        ev.u64("to_asn", graph_.asn(e.to));
        ev.u64("from_asn", graph_.asn(e.from));
        ev.u64("generation", e.generation);
        ev.u64("path_len", e.path_len);
        if (::bgpsim::obs::edge_kind(e) !=
            ::bgpsim::obs::InfectionEdgeKind::Blocked) {
          ev.u64("displaced_len", e.displaced_len);
          ev.u64("displaced_origin", e.displaced_origin);
        }
        ev.emit();
      }
    }
  }
#endif  // BGPSIM_OBS_DISABLED

  attack_span.arg("target", target);
  attack_span.arg("attacker", attacker);
  attack_span.arg("polluted_ases", result.polluted_ases);
  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("attack_result");
               ev.u64("target_asn", graph_.asn(target));
               ev.u64("attacker_asn", graph_.asn(attacker));
               ev.u64("polluted_ases", result.polluted_ases);
               ev.f64("polluted_fraction", result.polluted_address_fraction);
               ev.u64("routed_ases", result.routed_ases);
               ev.u64("generations", result.generations);
               ev.boolean("trace_enabled", traced);
               ev.u64("provenance_dropped", prov_dropped);
               // Under serve, the request id joins this record to its
               // access-log line; empty outside a request scope.
               if (!::bgpsim::obs::thread_request_id().empty()) {
                 ev.str("request_id", ::bgpsim::obs::thread_request_id());
               }
               ev.emit());
  (void)traced;  // unused under -DBGPSIM_OBS=OFF
  (void)prov_dropped;
  return result;
}

}  // namespace bgpsim
