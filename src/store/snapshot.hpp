// Versioned, checksummed binary snapshots of a converged simulation world.
//
// A snapshot persists an AsGraph, the scenario knobs needed to rebuild its
// policy configuration, and a BaselineStore of per-target legitimate-only
// route tables — everything `bgpsim serve` needs to answer hijack what-ifs
// without re-running baseline convergence.
//
// File layout (all integers little-endian; see DESIGN.md §9 for the table):
//
//   header   magic "BGPSNAP1" (8)   format version u32   reserved u32
//            topology FNV-1a checksum u64   section count u32
//   section  tag u32 (FourCC)   reserved u32   payload length u64
//            payload FNV-1a checksum u64   payload bytes
//
// Sections (in file order): 'TOPO' (CSR graph), 'PRMS' (scenario params +
// provenance), 'RIBS' (baseline route tables, targets ascending), and the
// optional 'GVIA' (generation seeds, targets ascending; written only when
// the store carries seeds, so readers that skip unknown tags still load it).
//
// Failure taxonomy — each condition raises a distinct exception type so
// callers and tests can tell them apart:
//   SnapshotTruncatedError  file ends before a declared length
//   SnapshotCorruptError    bad magic, section checksum mismatch, or
//                           malformed section contents
//   SnapshotVersionError    format version this build does not speak
//   SnapshotChecksumError   decoded topology does not match the header's
//                           topology checksum (or a caller-supplied graph)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "bgp/policy.hpp"
#include "obs/json.hpp"
#include "store/baseline.hpp"
#include "support/error.hpp"
#include "topology/as_graph.hpp"

namespace bgpsim::store {

/// Base class of all snapshot I/O failures.
class SnapshotError : public Error {
 public:
  using Error::Error;
};

class SnapshotTruncatedError : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

class SnapshotCorruptError : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

class SnapshotVersionError : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

class SnapshotChecksumError : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// The format version this build reads and writes.
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// Scenario knobs and provenance carried in the 'PRMS' section. The policy
/// fields feed Scenario::from_snapshot; seed/scale are provenance for
/// `bgpsim snapshot info` (0 when the graph came from a topology file).
struct SnapshotParams {
  std::uint32_t tier2_min_degree_full_scale = 120;
  bool tier1_shortest_path = true;
  bool stub_first_hop_filter = false;
  std::uint64_t seed = 0;
  std::uint32_t scale = 0;
};

/// In-memory form of one snapshot file.
struct Snapshot {
  AsGraph graph;
  SnapshotParams params;
  BaselineStore baselines;
  /// Generation seeds the file carried that decoding dropped because this
  /// build's generation engine does not reproduce them
  /// (BaselineStore::verify_seeds); never encoded.
  std::size_t seeds_dropped = 0;
};

/// The routing policy `params` give `graph`: the one Scenario::from_snapshot
/// runs (tier-1 flags from classify_tiers at the scaled tier-2 degree).
PolicyConfig snapshot_policy(const AsGraph& graph, const SnapshotParams& params);

/// Serialize to the binary format. Deterministic: encoding a decoded
/// snapshot reproduces the original bytes (tests pin this).
std::string encode_snapshot(const Snapshot& snapshot);

/// Parse and fully validate one snapshot document (header, per-section
/// checksums, topology checksum, route-table shape), then check its
/// generation seeds with BaselineStore::verify_seeds under snapshot_policy,
/// dropping them all when this build does not reproduce them.
Snapshot decode_snapshot(const std::string& bytes);

/// encode + write. Throws SnapshotError when the file cannot be written.
void save_snapshot(const std::string& path, const Snapshot& snapshot);

/// read + decode. Throws the taxonomy above.
Snapshot load_snapshot(const std::string& path);

/// Summary of a loaded snapshot (CLI `snapshot info`, serve /v1/topology).
struct SnapshotInfo {
  std::uint32_t format_version = kSnapshotFormatVersion;
  std::uint64_t topology_checksum = 0;
  std::uint32_t ases = 0;
  std::uint64_t links = 0;
  std::uint16_t regions = 0;
  std::uint32_t baseline_targets = 0;
  SnapshotParams params;
};

SnapshotInfo describe_snapshot(const Snapshot& snapshot);

/// Write the summary's fields into an open JSON object: the one encoder
/// behind `snapshot info --json` and serve's /v1/topology.
void write_snapshot_info(obs::JsonWriter& json, const SnapshotInfo& info);

/// The summary as one JSON object (`snapshot info --json`).
std::string snapshot_info_json(const SnapshotInfo& info);

}  // namespace bgpsim::store
