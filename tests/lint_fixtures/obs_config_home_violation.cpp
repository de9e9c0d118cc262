// Deliberate obs-config-home violation: library code outside
// src/obs/config.cpp reading an obs knob from the environment itself.
// obs::Config::from_env() is the one parser of the BGPSIM_* obs knobs; a
// second reader, as below, keeps its own default, never reaches the CLI flag
// that should override it, and is invisible to /statusz.
// The lint_detects_obs_config_home test expects a nonzero exit on this file.
#include <string>

#include "support/env.hpp"

namespace bgpsim {

inline std::string rogue_trace_path() {
  return env_string("BGPSIM_TRACE", "");
}

}  // namespace bgpsim
