// Origin-hijack experiment driver: converge the legitimate announcement,
// inject the attacker, and account pollution (AS counts and address space).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "bgp/equilibrium_engine.hpp"
#include "bgp/generation_engine.hpp"
#include "bgp/introspect.hpp"
#include "bgp/policy.hpp"
#include "bgp/types.hpp"
#include "net/allocation.hpp"
#include "obs/provenance.hpp"
#include "rpki/roa.hpp"
#include "store/baseline.hpp"
#include "topology/as_graph.hpp"

namespace bgpsim {

enum class EngineKind : std::uint8_t {
  Equilibrium,  ///< fast fixed point; default for parameter sweeps
  Generation,   ///< the paper's message-passing dynamics; traces available
};

struct SimConfig {
  EngineKind engine = EngineKind::Equilibrium;
  PolicyConfig policy;
};

/// Outcome of a single origin hijack.
struct AttackResult {
  AsId target = kInvalidAs;
  AsId attacker = kInvalidAs;

  /// ASes whose best route for the target's prefix leads to the attacker
  /// (the attacker itself is not counted — it was not fooled).
  std::uint32_t polluted_ases = 0;

  /// Address space (/24 equivalents) owned by polluted ASes: traffic from
  /// this space no longer reaches the target (paper fig. 1: "96% of the
  /// internet address space can no longer reach the target").
  std::uint64_t polluted_address_space = 0;
  double polluted_address_fraction = 0.0;

  /// ASes holding any route for the prefix (denominator sanity check).
  std::uint32_t routed_ases = 0;

  /// Generations the generation engine ran for this attack: legitimate plus
  /// attacker announcement (the attacker's alone for a sub-prefix attack);
  /// 0 on the equilibrium engine.
  std::uint32_t generations = 0;
};

/// What the attacker announces (extension of the paper's §VIII future work).
enum class AttackKind : std::uint8_t {
  ExactPrefix,  ///< the victim's own prefix — competes with the legit route
  SubPrefix,    ///< a more-specific — no competition; longest-match wins
};

struct AttackOptions {
  AttackKind kind = AttackKind::ExactPrefix;

  /// Spoof the AS path to end in the victim's ASN ([attacker, victim]).
  /// Origin validation sees the victim's (authorized) origin, so the
  /// announcement is not Invalid — but the path is one hop longer, and the
  /// victim itself rejects it by loop detection.
  bool forged_origin = false;

  /// Observation facets. Either one runs the attack on the generation
  /// engine whatever SimConfig::engine says (the same origins, classes and
  /// path lengths as the equilibrium engine; `generations` is then nonzero).
  /// `trace` records the attacker announcement's per-generation frames
  /// (drives the paper's polar-graph figures and detection replay).
  PropagationTrace* trace = nullptr;
  /// Per-generation route-decision history of the AS the caller names in
  /// `history->watched`, over both announcements (drives the CLI's
  /// `--explain <asn>`). Cleared first; stays empty under -DBGPSIM_OBS=OFF
  /// (introspection compiles out).
  DecisionHistory* history = nullptr;
};

/// Optional RPKI context: when present, the deployed validators only drop
/// the bogus announcement if the ROA database actually marks it Invalid
/// (partial publication and maxLength slack both matter). Without it,
/// validators have perfect knowledge (the paper's abstract model).
struct RpkiContext {
  const RoaDatabase* roas = nullptr;
  const PrefixAllocation* allocation = nullptr;
};

struct ExtendedAttackResult : AttackResult {
  Prefix announced;                                   ///< what the attacker sent
  Asn claimed_origin = 0;                             ///< origin ASN in the path
  RpkiValidity validity = RpkiValidity::NotFound;     ///< per the ROA database
  bool validators_engaged = false;                    ///< did deployed ROV drop it
};

/// Runs hijack scenarios over a fixed topology. Not thread-safe; create one
/// simulator per thread. The route table of the most recent attack stays
/// readable until the next call (used by detection experiments).
class HijackSimulator {
 public:
  HijackSimulator(const AsGraph& graph, SimConfig config);

  /// Replace the deployed origin-validation set (empty optional = none).
  void set_validators(std::optional<ValidatorSet> validators);

  bool has_validators() const { return validators_.has_value(); }

  /// The deployed origin-validation set, if any (read-only; counterfactual
  /// choke-point analysis re-runs attacks with one AS added to this set).
  const std::optional<ValidatorSet>& validators() const { return validators_; }

  /// Record pollution provenance (infection edges; obs/provenance.hpp) for
  /// every subsequent attack into `recorder`; nullptr reverts to the obs
  /// config's arming (obs::Config::provenance), or to no tracing. The recorder
  /// is reset (begin_attack) per attack, so after an attack it holds that
  /// attack's edges only. Tracing never changes results: traced and
  /// untraced attacks produce bit-identical route tables.
  void set_provenance(obs::ProvenanceRecorder* recorder) {
    external_prov_ = recorder;
  }

  /// Recorder the most recent attack traced into (nullptr when untraced).
  obs::ProvenanceRecorder* last_provenance() const { return last_prov_; }

  /// Attach precomputed legitimate-only baselines (typically loaded from a
  /// snapshot). Exact-prefix equilibrium attacks against a target with a
  /// stored baseline then warm-start: the baseline table is cloned, the
  /// attacker injected, and the unique stable state restored by worklist
  /// repair (bgp/warm_repair.hpp) instead of full reconvergence. Results are
  /// bit-identical to the cold path; warm_hijack_repair falls back to a cold
  /// compute when its work budget trips. Exact-prefix generation-engine
  /// attacks without a decision history (traces, detection replays) against
  /// a target that also has a generation seed load its converged legitimate
  /// state (GenerationEngine::load_converged) instead of announcing it; the
  /// trace, table and `generations` are the same. Pass nullptr to detach.
  void attach_baseline(std::shared_ptr<const store::BaselineStore> baselines);

  /// Whether the most recent attack was answered from a warm baseline.
  bool last_attack_warm() const { return last_attack_warm_; }

  /// Simulate `attacker` hijacking `target`'s prefix: converge the
  /// legitimate announcement, inject the attacker, account the pollution.
  /// The one attack implementation; the forms below forward to it. Handles
  /// sub-prefix and/or forged-origin announcements, optional RPKI-aware
  /// validation, and the trace/history facets of `options`. For sub-prefix
  /// attacks the pollution counts every AS that installs a route for the
  /// bogus more-specific (longest-prefix match diverts its traffic
  /// regardless of the covering legitimate route).
  ExtendedAttackResult attack_ex(AsId target, AsId attacker,
                                 const AttackOptions& options,
                                 const RpkiContext* rpki = nullptr);

  /// Exact-prefix attack with the configured engine.
  AttackResult attack(AsId target, AsId attacker) {
    return attack_ex(target, attacker, {});
  }

  /// Exact-prefix attack on the generation engine, recording the attacker
  /// announcement's per-generation frames into `trace`.
  AttackResult attack_with_trace(AsId target, AsId attacker,
                                 PropagationTrace& trace) {
    return attack_ex(target, attacker, {.trace = &trace});
  }

  /// Route table of the most recent attack.
  const RouteTable& routes() const { return table_; }

  const AsGraph& graph() const { return graph_; }
  const SimConfig& config() const { return config_; }

 private:
  AttackResult summarize(AsId target, AsId attacker, std::uint32_t generations) const;

  /// Resolve the effective provenance recorder for one attack (external >
  /// config-armed > none), reset it, arm the engines, and remember it for
  /// summarize(). attack_ex calls this exactly once, before any engine runs.
  obs::ProvenanceRecorder* arm_trace();

  /// Try to answer an exact-prefix equilibrium attack from the attached
  /// baseline. On success table_ holds the stable hijacked state; on false
  /// (no baseline for the target, or repair budget exceeded) table_ is
  /// unspecified and the caller must run the cold engine.
  bool try_warm_attack(AsId target, AsId attacker, std::uint16_t attacker_seed_len,
                       const ValidatorSet* validators);

  const AsGraph& graph_;
  SimConfig config_;
  EquilibriumEngine equilibrium_;
  std::optional<GenerationEngine> generation_;  // lazily built (large state)
  std::optional<ValidatorSet> validators_;
  std::shared_ptr<const store::BaselineStore> baselines_;
  bool last_attack_warm_ = false;
  RouteTable table_;

  // Pollution provenance (see set_provenance). config_prov_ is created once
  // in the constructor when the active obs::Config arms tracing process-wide;
  // external_prov_ (CLI flag, serve per-request recorder) overrides it.
  obs::ProvenanceRecorder* external_prov_ = nullptr;
  std::unique_ptr<obs::ProvenanceRecorder> config_prov_;
  obs::ProvenanceRecorder* last_prov_ = nullptr;
};

}  // namespace bgpsim
