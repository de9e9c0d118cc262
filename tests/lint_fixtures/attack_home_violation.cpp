// Deliberate attack-home violation: library code outside src/bgp/,
// src/hijack/ and src/store/ driving an engine itself. HijackSimulator::
// attack_ex is the one implementation of an attack (legitimate announcement,
// attacker injection, validators, warm start, trace and decision-history
// facets); a second surface replaying the announcements by hand, as below,
// would drift from it the first time the attack semantics change.
// The lint_detects_attack_home test expects a nonzero exit on this file.
#include "bgp/generation_engine.hpp"

namespace bgpsim {

inline std::uint32_t rogue_attack(GenerationEngine& engine, AsId victim,
                                  AsId attacker) {
  engine.reset();
  engine.announce(victim, Origin::Legit);
  return engine.announce(attacker, Origin::Attacker).generations;
}

}  // namespace bgpsim
