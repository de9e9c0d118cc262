// Core route-state types shared by both routing engines.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/relationship.hpp"

namespace bgpsim {

/// Which origin a selected route leads to in a hijack scenario.
enum class Origin : std::uint8_t {
  None = 0,      ///< no route for the prefix
  Legit = 1,     ///< the legitimate (target) origin
  Attacker = 2,  ///< the hijacker's bogus origin
};

constexpr const char* to_string(Origin origin) {
  switch (origin) {
    case Origin::None:
      return "none";
    case Origin::Legit:
      return "legit";
    case Origin::Attacker:
      return "attacker";
  }
  return "?";
}

/// Route-class a route was learned through; orders LOCAL_PREF.
enum class RouteClass : std::uint8_t {
  None = 0,
  Provider = 1,
  Peer = 2,
  Customer = 3,
  Self = 4,  ///< self-originated
};

constexpr RouteClass route_class_from(Rel from_rel) {
  switch (from_rel) {
    case Rel::Customer:
      return RouteClass::Customer;
    case Rel::Peer:
      return RouteClass::Peer;
    case Rel::Provider:
      return RouteClass::Provider;
    case Rel::Sibling:
      return RouteClass::Customer;  // siblings are contracted before simulation
  }
  return RouteClass::None;
}

/// Selected route of one AS for the prefix under study.
struct Route {
  Origin origin = Origin::None;
  RouteClass cls = RouteClass::None;
  std::uint16_t path_len = 0;  ///< number of ASes on the path, origin included
  AsId via = kInvalidAs;       ///< neighbor the route was learned from (self: kInvalidAs)

  bool valid() const { return origin != Origin::None; }
};

/// Final routing state for one prefix across the whole topology.
struct RouteTable {
  std::vector<Route> routes;  ///< indexed by AsId

  void reset(std::size_t n) { routes.assign(n, Route{}); }

  std::uint32_t count_origin(Origin origin) const {
    std::uint32_t count = 0;
    for (const Route& r : routes) count += (r.origin == origin);
    return count;
  }

  /// Exact heap footprint of the table (allocated, not just used): the
  /// `mem.rib_bytes_est` gauge that perfdiff holds against baselines.
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(routes.capacity()) * sizeof(Route);
  }
};

/// One AS whose selected route came through another neighbor than a route
/// table says: `via` replaces the table's via at `as`. Message-passing
/// engines settle equal-rank ties by arrival order, EquilibriumEngine by the
/// lowest neighbor id, so their legitimate-only states differ only here.
struct ViaPatch {
  AsId as = kInvalidAs;
  AsId via = kInvalidAs;
};

/// Per-AS flag set: 1 = this AS performs route-origin validation and drops
/// announcements whose origin is the attacker (RPKI/ROVER-style blocking).
using ValidatorSet = std::vector<std::uint8_t>;

}  // namespace bgpsim
