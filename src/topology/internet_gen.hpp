// Synthetic CAIDA-like Internet topology generator.
//
// The paper seeds its simulator with the 2013 CAIDA AS-relationship snapshot
// (42,697 ASes, 139,156 links). That dataset is not redistributable here, so
// this generator produces topologies with the same structural fingerprint the
// paper's experiments depend on:
//   * a clique of tier-1 ASes (17 at full scale),
//   * a pool of very-high-degree global tier-2 transit providers,
//   * ~14.7 % transit ASes overall,
//   * power-law degrees driven by preferential attachment plus a dense
//     peering mesh (link density E/N ≈ 3.26),
//   * labeled geographic regions (mean ≈ 230 ASes; the paper's New-Zealand
//     case has 187) with their own transit hierarchies and provider *chains*
//     that create the depth spread (1..7) the paper measures,
//   * a mix of single-/multi-homed stubs, some attached directly to tier-1s
//     (the AS 98 / AS 35 profiles) and some deep in regional chains
//     (the AS 55857 profile),
//   * heavy-tailed address-space weights (/24 equivalents).
//
// Everything is deterministic in `seed`.
#pragma once

#include <cstdint>

#include "topology/as_graph.hpp"

namespace bgpsim {

struct InternetGenParams {
  std::uint32_t total_ases = 8000;
  std::uint64_t seed = 42;

  std::uint32_t num_tier1 = 17;        ///< capped to total/100 for tiny graphs
  double tier2_fraction = 0.0035;      ///< global tier-2 pool size / total
  double transit_fraction = 0.148;     ///< paper: 6318 / 42697
  double region_mean_size = 230.0;     ///< ASes per region
  double region_size_skew = 0.7;       ///< zipf exponent over region sizes
  double links_per_as = 3.26;          ///< paper: 139156 / 42697

  double stub_multihome_prob = 0.45;   ///< second provider
  double stub_thirdhome_prob = 0.12;   ///< third provider
  double stub_direct_tier1_prob = 0.07;
  double stub_global_tier2_prob = 0.15;
  double stub_uniform_attach_prob = 0.25;  ///< else degree-preferential

  double chain_continue_prob = 0.55;   ///< regional provider chains
  std::uint32_t chain_max_len = 6;

  double sibling_pair_fraction = 0.0;  ///< fraction of transits paired as siblings
};

/// Generate a synthetic Internet. Throws ConfigError for degenerate
/// parameters (fewer than ~50 ASes).
AsGraph generate_internet(const InternetGenParams& params);

/// Degree threshold equivalent to `full_scale_value` at this topology size
/// (linear scaling of the paper's 42,697-AS thresholds, min 2).
std::uint32_t scale_degree_threshold(std::uint32_t total_ases,
                                     std::uint32_t full_scale_value);

/// Count equivalent to the paper's `full_scale_count` ASes at this size
/// (e.g. the "62 core ASes" becomes 62 * N / 42697, min 1).
std::uint32_t scale_count(std::uint32_t total_ases, std::uint32_t full_scale_count);

/// The paper's reference full-scale topology size.
inline constexpr std::uint32_t kPaperTotalAses = 42697;

}  // namespace bgpsim
