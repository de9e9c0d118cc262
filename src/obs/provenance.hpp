// Pollution provenance: per-(AS, adoption) infection edges captured while an
// engine converges a hijack, so the *paths* pollution took — not just its
// final count — survive the run.
//
// Every engine (generation, equilibrium, event, warm-repair) calls
// record_edge() at the exact points where an AS's selected route enters,
// re-parents inside, or leaves the attacker's origin, and where a deployed
// validator drops a bogus offer:
//
//   Adopt    the AS's selection became (or re-parented within) an
//            Attacker-origin route; `from` is the exporting neighbor
//   Cure     the AS's selection left the Attacker origin; `from` is the new
//            route's via (or the AS itself when it ended up routeless)
//   Blocked  a deployed validator dropped a bogus offer from `from`
//
// Replaying Adopt/Cure edges in order reproduces the converged infection
// set: the last Adopt per AS names its parent in the infection tree (equal
// to the final table's via — the uniqueness theorem makes the tree
// engine-independent; tests/provenance_test.cpp pins warm == cold).
// `generation` is engine-specific bookkeeping (generation number, path-length
// level, or 0) and is excluded from cross-engine comparisons.
//
// Storage is the PR-8 ring idiom (obs/profiler.hpp): a preallocated
// append-only buffer, slot claim with one relaxed fetch_add, plain stores,
// release commit — and drop-and-count on overflow, never blocking the
// engine. A dropped edge only means the *trace* is incomplete
// (provenance.edges_dropped says by how much); the simulation itself is
// untouched, and traced runs stay bit-identical to untraced ones.
//
// Arming: Config::provenance / provenance_ring (BGPSIM_PROVENANCE,
// BGPSIM_PROVENANCE_RING; DESIGN.md §7). Armed, every HijackSimulator
// records; a path also streams infection_edge NDJSON records there.
//
// Under -DBGPSIM_OBS=OFF the recorder degrades to an inline no-op stub and
// provenance.cpp compiles to nothing (kProvenanceCompiled is the witness; CI
// proves it with nm over the OBS=OFF archive, like the profiler's check).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bgpsim::obs {

class EventLogSink;  // obs/eventlog.hpp

/// Why an edge was recorded (InfectionEdge::kind).
enum class InfectionEdgeKind : std::uint8_t {
  Adopt = 0,    ///< selection became / re-parented within Attacker origin
  Cure = 1,     ///< selection left the Attacker origin
  Blocked = 2,  ///< a deployed validator dropped a bogus offer
};

/// One provenance edge: who exported the bogus route to whom, at which
/// engine step, displacing what. 16 bytes, POD, defined in both OBS modes.
struct InfectionEdge {
  std::uint32_t to = 0;    ///< AS whose selection changed (or validator site)
  std::uint32_t from = 0;  ///< exporting neighbor (== to when routeless cure)
  std::uint32_t generation = 0;  ///< engine step (engine-specific; see above)
  std::uint16_t path_len = 0;       ///< new/offered route's path length
  std::uint16_t displaced_len : 13;  ///< displaced route's path length
  std::uint16_t displaced_origin : 2;  ///< Origin of the displaced route
  std::uint16_t kind : 1;              ///< low bit of InfectionEdgeKind
  // kind needs 2 bits; Blocked is flagged via displaced_origin == 3 instead
  // of widening the struct. Use edge_kind()/make_edge helpers, not raw bits.
};

/// Default edge-buffer capacity: 262144 edges (4 MiB) holds every
/// adopt/cure/blocked edge of a full-scale (42,697-AS) hijack with churn
/// headroom; overflow drops-and-counts rather than growing.
inline constexpr std::size_t kDefaultProvenanceRing = 262144;

#if defined(BGPSIM_OBS_DISABLED)

inline constexpr bool kProvenanceCompiled = false;

/// Inline no-op stub: identical surface, records nothing, owns nothing.
class ProvenanceRecorder {
 public:
  explicit ProvenanceRecorder(std::size_t /*capacity*/ = 0) {}
  void begin_attack() {}
  bool record_edge(const InfectionEdge& /*edge*/) { return false; }
  std::size_t capacity() const { return 0; }
  std::uint64_t committed() const { return 0; }
  std::uint64_t dropped() const { return 0; }
  const InfectionEdge* edges() const { return nullptr; }
};

#else

inline constexpr bool kProvenanceCompiled = true;

/// Preallocated append-only edge buffer, reset per attack via begin_attack().
/// Not a wrap-around ring: once `capacity` edges are committed, further
/// record_edge() calls drop (counted) rather than overwrite or block — the
/// kept edges stay an unbiased prefix of the run and edges_dropped says how
/// much tail was lost (raise BGPSIM_PROVENANCE_RING to keep it).
///
/// record_edge() follows the profiler's signal-safe discipline even though
/// engines are single-threaded today: slot claim is one relaxed fetch_add,
/// the edge copy is plain stores into the claimed slot, and the release
/// increment of committed_ publishes it. Readers (summarize/attribution,
/// after the engine returned) synchronize through acquire loads.
class ProvenanceRecorder {
 public:
  /// `capacity` == 0 takes the active Config::provenance_ring (default
  /// 262144).
  explicit ProvenanceRecorder(std::size_t capacity = 0);

  /// Reset for a fresh attack: every trace stands alone.
  void begin_attack() {
    claimed_.store(0, std::memory_order_relaxed);
    committed_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

  /// Append one edge. Returns false on overflow, which only bumps the
  /// dropped counter — never blocks, never allocates.
  bool record_edge(const InfectionEdge& edge) {
    const std::size_t slot = claimed_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_release);
      return false;
    }
    edges_[slot] = edge;
    committed_.fetch_add(1, std::memory_order_release);
    return true;
  }

  std::size_t capacity() const { return capacity_; }
  /// Edges present in edges()[0 .. committed()): a contiguous prefix, in
  /// record order (single recording engine per attack).
  std::uint64_t committed() const {
    return committed_.load(std::memory_order_acquire);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_acquire);
  }
  const InfectionEdge* edges() const { return edges_.data(); }

 private:
  std::size_t capacity_;
  std::vector<InfectionEdge> edges_;  // preallocated, never resized
  std::atomic<std::size_t> claimed_{0};
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// The standalone infection_edge stream, opened by obs::start() at the path
/// form of Config::provenance: edge streams are per-attack firehoses and
/// must not interleave with the simulation event log.
EventLogSink& provenance_stream();

/// provenance_stream() while it is open; nullptr otherwise.
EventLogSink* provenance_sink();

#endif  // BGPSIM_OBS_DISABLED

/// Pack an edge (both modes; keeps the kind/displaced_origin bit-sharing in
/// one place). Blocked edges carry no displaced route.
inline InfectionEdge make_edge(InfectionEdgeKind kind, std::uint32_t to,
                               std::uint32_t from, std::uint32_t generation,
                               std::uint16_t path_len,
                               std::uint16_t displaced_len = 0,
                               std::uint8_t displaced_origin = 0) {
  InfectionEdge e;
  e.to = to;
  e.from = from;
  e.generation = generation;
  e.path_len = path_len;
  if (kind == InfectionEdgeKind::Blocked) {
    e.displaced_len = 0;
    e.displaced_origin = 3;  // sentinel: no displaced route, edge is Blocked
    e.kind = 0;
  } else {
    e.displaced_len = displaced_len & 0x1fff;
    e.displaced_origin = displaced_origin & 0x3;
    e.kind = kind == InfectionEdgeKind::Cure ? 1 : 0;
  }
  return e;
}

inline InfectionEdgeKind edge_kind(const InfectionEdge& e) {
  if (e.displaced_origin == 3) return InfectionEdgeKind::Blocked;
  return e.kind != 0 ? InfectionEdgeKind::Cure : InfectionEdgeKind::Adopt;
}

inline const char* to_string(InfectionEdgeKind kind) {
  switch (kind) {
    case InfectionEdgeKind::Adopt: return "adopt";
    case InfectionEdgeKind::Cure: return "cure";
    case InfectionEdgeKind::Blocked: return "blocked";
  }
  return "?";
}

}  // namespace bgpsim::obs
