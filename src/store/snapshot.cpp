#include "store/snapshot.hpp"

#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>
#include <system_error>

#include "obs/json.hpp"
#include "support/assert.hpp"
#include "topology/internet_gen.hpp"
#include "topology/metrics.hpp"

namespace bgpsim::store {
namespace {

constexpr char kMagic[8] = {'B', 'G', 'P', 'S', 'N', 'A', 'P', '1'};

constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

constexpr std::uint32_t kSectionTopology = fourcc('T', 'O', 'P', 'O');
constexpr std::uint32_t kSectionParams = fourcc('P', 'R', 'M', 'S');
constexpr std::uint32_t kSectionRibs = fourcc('R', 'I', 'B', 'S');
constexpr std::uint32_t kSectionSeeds = fourcc('G', 'V', 'I', 'A');

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;  // FNV prime
  }
  return hash;
}

// ---- little-endian emit ----------------------------------------------------

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

// ---- bounds-checked little-endian read -------------------------------------

class Reader {
 public:
  Reader(std::string_view bytes, const char* what)
      : bytes_(bytes), what_(what) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint16_t u16() {
    const auto b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }

  std::uint32_t u32() {
    const auto b = take(4);
    return static_cast<std::uint32_t>(b[0]) |
           (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
  }

  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }

  std::string_view raw(std::size_t n) {
    const unsigned char* p = take(n);
    return {reinterpret_cast<const char*>(p), n};
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t position() const { return pos_; }

 private:
  const unsigned char* take(std::size_t n) {
    if (pos_ + n > bytes_.size()) {
      throw SnapshotTruncatedError(std::string("snapshot truncated in ") +
                                   what_ + " (need " + std::to_string(n) +
                                   " bytes at offset " + std::to_string(pos_) +
                                   ", have " + std::to_string(remaining()) +
                                   ")");
    }
    const auto* p = reinterpret_cast<const unsigned char*>(bytes_.data()) + pos_;
    pos_ += n;
    return p;
  }

  std::string_view bytes_;
  const char* what_;
  std::size_t pos_ = 0;
};

}  // namespace

/// Friend of AsGraph: round-trips the CSR arrays field-for-field.
class SnapshotCodec {
 public:
  static void encode_graph(const AsGraph& g, std::string& out) {
    const std::uint32_t n = g.num_ases();
    put_u32(out, n);
    put_u16(out, static_cast<std::uint16_t>(g.region_names_.size()));
    for (const std::string& name : g.region_names_) {
      BGPSIM_REQUIRE(name.size() <= 0xffff, "region name too long");
      put_u16(out, static_cast<std::uint16_t>(name.size()));
      out.append(name);
    }
    for (const Asn asn : g.asn_) put_u32(out, asn);
    for (const std::uint64_t space : g.addr_space_) put_u64(out, space);
    for (const std::uint16_t region : g.region_) put_u16(out, region);
    for (const std::uint32_t offset : g.offsets_) put_u32(out, offset);
    for (const Neighbor& nbr : g.adj_) {
      put_u32(out, nbr.id);
      out.push_back(static_cast<char>(nbr.rel));
    }
  }

  static AsGraph decode_graph(Reader& in) {
    AsGraph g;
    const std::uint32_t n = in.u32();
    const std::uint16_t region_count = in.u16();
    if (region_count == 0) {
      throw SnapshotCorruptError("topology section: no regions");
    }
    g.region_names_.reserve(region_count);
    for (std::uint16_t i = 0; i < region_count; ++i) {
      const std::uint16_t len = in.u16();
      g.region_names_.emplace_back(in.raw(len));
    }
    g.asn_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) g.asn_.push_back(in.u32());
    g.addr_space_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      g.addr_space_.push_back(in.u64());
      g.total_addr_space_ += g.addr_space_.back();
    }
    g.region_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint16_t region = in.u16();
      if (region >= region_count) {
        throw SnapshotCorruptError("topology section: region id out of range");
      }
      g.region_.push_back(region);
    }
    g.offsets_.reserve(static_cast<std::size_t>(n) + 1);
    for (std::uint32_t i = 0; i <= n; ++i) {
      const std::uint32_t offset = in.u32();
      if (!g.offsets_.empty() && offset < g.offsets_.back()) {
        throw SnapshotCorruptError("topology section: offsets not monotone");
      }
      g.offsets_.push_back(offset);
    }
    if (g.offsets_.front() != 0) {
      throw SnapshotCorruptError("topology section: first offset nonzero");
    }
    const std::uint32_t adj_len = g.offsets_.back();
    if (adj_len % 2 != 0) {
      throw SnapshotCorruptError("topology section: odd adjacency length");
    }
    g.adj_.reserve(adj_len);
    for (std::uint32_t i = 0; i < adj_len; ++i) {
      Neighbor nbr;
      nbr.id = in.u32();
      const std::uint8_t rel = in.u8();
      if (nbr.id >= n || rel > static_cast<std::uint8_t>(Rel::Sibling)) {
        throw SnapshotCorruptError("topology section: bad adjacency entry");
      }
      nbr.rel = static_cast<Rel>(rel);
      g.adj_.push_back(nbr);
    }
    g.index_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!g.index_.emplace(g.asn_[i], i).second) {
        throw SnapshotCorruptError("topology section: duplicate ASN");
      }
    }
    return g;
  }
};

namespace {

void append_section(std::string& out, std::uint32_t tag,
                    const std::string& payload) {
  put_u32(out, tag);
  put_u32(out, 0);  // reserved
  put_u64(out, payload.size());
  put_u64(out, fnv1a(payload));
  out.append(payload);
}

std::string encode_params(const SnapshotParams& params) {
  std::string out;
  put_u32(out, params.tier2_min_degree_full_scale);
  out.push_back(params.tier1_shortest_path ? 1 : 0);
  out.push_back(params.stub_first_hop_filter ? 1 : 0);
  put_u16(out, 0);  // padding, keeps later fields aligned in hex dumps
  put_u64(out, params.seed);
  put_u32(out, params.scale);
  return out;
}

SnapshotParams decode_params(Reader& in) {
  SnapshotParams params;
  params.tier2_min_degree_full_scale = in.u32();
  const std::uint8_t t1sp = in.u8();
  const std::uint8_t stub = in.u8();
  if (t1sp > 1 || stub > 1) {
    throw SnapshotCorruptError("params section: boolean field out of range");
  }
  params.tier1_shortest_path = t1sp != 0;
  params.stub_first_hop_filter = stub != 0;
  (void)in.u16();  // padding
  params.seed = in.u64();
  params.scale = in.u32();
  return params;
}

std::string encode_ribs(const BaselineStore& baselines, std::uint32_t n) {
  std::string out;
  const std::vector<AsId> targets = baselines.targets();
  put_u32(out, static_cast<std::uint32_t>(targets.size()));
  for (const AsId target : targets) {
    const RouteTable* table = baselines.find(target);
    BGPSIM_ASSERT(table != nullptr, "baseline listed but missing");
    BGPSIM_REQUIRE(table->routes.size() == n,
                   "baseline table size does not match the topology");
    put_u32(out, target);
    for (const Route& route : table->routes) {
      out.push_back(static_cast<char>(route.origin));
      out.push_back(static_cast<char>(route.cls));
      put_u16(out, route.path_len);
      put_u32(out, route.via);
    }
  }
  return out;
}

BaselineStore decode_ribs(Reader& in, std::uint32_t n) {
  BaselineStore baselines;
  const std::uint32_t target_count = in.u32();
  AsId previous = kInvalidAs;
  for (std::uint32_t t = 0; t < target_count; ++t) {
    const AsId target = in.u32();
    if (target >= n) {
      throw SnapshotCorruptError("ribs section: target out of range");
    }
    if (previous != kInvalidAs && target <= previous) {
      throw SnapshotCorruptError("ribs section: targets not ascending");
    }
    previous = target;
    RouteTable table;
    table.routes.reserve(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      Route route;
      const std::uint8_t origin = in.u8();
      const std::uint8_t cls = in.u8();
      if (origin > static_cast<std::uint8_t>(Origin::Attacker) ||
          cls > static_cast<std::uint8_t>(RouteClass::Self)) {
        throw SnapshotCorruptError("ribs section: bad route encoding");
      }
      route.origin = static_cast<Origin>(origin);
      route.cls = static_cast<RouteClass>(cls);
      route.path_len = in.u16();
      route.via = in.u32();
      if (route.via != kInvalidAs && route.via >= n) {
        throw SnapshotCorruptError("ribs section: via out of range");
      }
      table.routes.push_back(route);
    }
    baselines.put(target, std::move(table));
  }
  return baselines;
}

std::string encode_seeds(const BaselineStore& baselines) {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(baselines.seed_count()));
  for (const AsId target : baselines.targets()) {
    const GenerationSeed* seed = baselines.find_seed(target);
    if (seed == nullptr) continue;
    put_u32(out, target);
    put_u32(out, seed->generations);
    put_u32(out, static_cast<std::uint32_t>(seed->vias.size()));
    for (const ViaPatch& patch : seed->vias) {
      put_u32(out, patch.as);
      put_u32(out, patch.via);
    }
  }
  return out;
}

/// Decode the seeds into `baselines`, which already holds the decoded
/// tables. A seed must patch a learned route onto a neighbor that offers it
/// one hop longer in the same class, so that
/// GenerationEngine::load_converged finds every via's entry.
void decode_seeds(Reader& in, const AsGraph& graph, BaselineStore& baselines) {
  const std::uint32_t n = graph.num_ases();
  const std::uint32_t seed_count = in.u32();
  AsId previous_target = kInvalidAs;
  for (std::uint32_t s = 0; s < seed_count; ++s) {
    const AsId target = in.u32();
    if (previous_target != kInvalidAs && target <= previous_target) {
      throw SnapshotCorruptError("seeds section: targets not ascending");
    }
    previous_target = target;
    const RouteTable* table = baselines.find(target);
    if (table == nullptr) {
      throw SnapshotCorruptError("seeds section: target without a baseline");
    }
    GenerationSeed seed;
    seed.generations = in.u32();
    const std::uint32_t patch_count = in.u32();
    if (patch_count > n) {
      throw SnapshotCorruptError("seeds section: more patches than ASes");
    }
    seed.vias.reserve(patch_count);
    for (std::uint32_t p = 0; p < patch_count; ++p) {
      ViaPatch patch;
      patch.as = in.u32();
      patch.via = in.u32();
      if (patch.as >= n || patch.via >= n) {
        throw SnapshotCorruptError("seeds section: AS or via out of range");
      }
      if (!seed.vias.empty() && patch.as <= seed.vias.back().as) {
        throw SnapshotCorruptError("seeds section: ASes not ascending");
      }
      const Route& route = table->routes[patch.as];
      const std::optional<Rel> rel = graph.relationship(patch.as, patch.via);
      if (!rel) {
        throw SnapshotCorruptError("seeds section: via is not a neighbor");
      }
      const Route& offer = table->routes[patch.via];
      if (!route.valid() || route.cls == RouteClass::Self || !offer.valid() ||
          offer.path_len + 1 != route.path_len) {
        throw SnapshotCorruptError(
            "seeds section: via's length + 1 is not the AS's length");
      }
      if (route_class_from(*rel) != route.cls ||
          !exports_to(offer.cls, inverse(*rel))) {
        throw SnapshotCorruptError(
            "seeds section: via does not offer the AS's route class");
      }
      seed.vias.push_back(patch);
    }
    baselines.put_seed(target, std::move(seed));
  }
}

}  // namespace

PolicyConfig snapshot_policy(const AsGraph& graph, const SnapshotParams& params) {
  PolicyConfig policy;
  policy.tier1_shortest_path = params.tier1_shortest_path;
  policy.stub_first_hop_filter = params.stub_first_hop_filter;
  const TierClassification tiers = classify_tiers(
      graph, scale_degree_threshold(graph.num_ases(),
                                    params.tier2_min_degree_full_scale));
  policy.is_tier1.assign(tiers.is_tier1.begin(), tiers.is_tier1.end());
  return policy;
}

std::string encode_snapshot(const Snapshot& snapshot) {
  std::string topo;
  SnapshotCodec::encode_graph(snapshot.graph, topo);
  const std::string params = encode_params(snapshot.params);
  const std::string ribs = encode_ribs(snapshot.baselines,
                                       snapshot.graph.num_ases());
  // Optional: a store without seeds writes the three-section layout.
  const bool seeded = snapshot.baselines.seed_count() != 0;
  const std::string seeds = seeded ? encode_seeds(snapshot.baselines) : "";

  std::string out;
  out.reserve(32 + topo.size() + params.size() + ribs.size() + seeds.size() +
              96);
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kSnapshotFormatVersion);
  put_u32(out, 0);  // reserved
  put_u64(out, topology_checksum(snapshot.graph));
  put_u32(out, seeded ? 4 : 3);  // section count
  append_section(out, kSectionTopology, topo);
  append_section(out, kSectionParams, params);
  append_section(out, kSectionRibs, ribs);
  if (seeded) append_section(out, kSectionSeeds, seeds);
  return out;
}

namespace {

// decode_snapshot without the seed check.
Snapshot parse_snapshot(const std::string& bytes) {
  Reader header(bytes, "header");
  const std::string_view magic = header.raw(sizeof(kMagic));
  if (magic != std::string_view(kMagic, sizeof(kMagic))) {
    throw SnapshotCorruptError("not a bgpsim snapshot (bad magic)");
  }
  const std::uint32_t version = header.u32();
  if (version != kSnapshotFormatVersion) {
    throw SnapshotVersionError(
        "unsupported snapshot format version " + std::to_string(version) +
        " (this build speaks " + std::to_string(kSnapshotFormatVersion) + ")");
  }
  (void)header.u32();  // reserved
  const std::uint64_t declared_checksum = header.u64();
  const std::uint32_t section_count = header.u32();

  Snapshot snapshot;
  bool have_topo = false, have_params = false, have_ribs = false,
       have_seeds = false;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    const std::uint32_t tag = header.u32();
    (void)header.u32();  // reserved
    const std::uint64_t length = header.u64();
    const std::uint64_t checksum = header.u64();
    const std::string_view payload =
        header.raw(static_cast<std::size_t>(length));
    if (fnv1a(payload) != checksum) {
      throw SnapshotCorruptError("section payload checksum mismatch (tag " +
                                 std::to_string(tag) + ")");
    }
    Reader body(payload, "section body");
    if (tag == kSectionTopology) {
      snapshot.graph = SnapshotCodec::decode_graph(body);
      have_topo = true;
    } else if (tag == kSectionParams) {
      snapshot.params = decode_params(body);
      have_params = true;
    } else if (tag == kSectionRibs) {
      if (!have_topo) {
        throw SnapshotCorruptError("ribs section precedes topology section");
      }
      snapshot.baselines = decode_ribs(body, snapshot.graph.num_ases());
      have_ribs = true;
    } else if (tag == kSectionSeeds) {
      if (!have_ribs || have_seeds) {
        throw SnapshotCorruptError(
            "seeds section precedes the ribs section or repeats");
      }
      decode_seeds(body, snapshot.graph, snapshot.baselines);
      have_seeds = true;
    }
    // Unknown tags are skipped (forward-compatible within a version).
    if (body.remaining() != 0 &&
        (tag == kSectionTopology || tag == kSectionParams ||
         tag == kSectionRibs || tag == kSectionSeeds)) {
      throw SnapshotCorruptError("section has trailing bytes (tag " +
                                 std::to_string(tag) + ")");
    }
  }
  if (!have_topo || !have_params || !have_ribs) {
    throw SnapshotCorruptError("snapshot is missing a required section");
  }
  if (header.remaining() != 0) {
    throw SnapshotCorruptError("trailing bytes after the last section");
  }

  const std::uint64_t actual = topology_checksum(snapshot.graph);
  if (actual != declared_checksum) {
    throw SnapshotChecksumError(
        "topology checksum mismatch: header declares " +
        std::to_string(declared_checksum) + ", decoded graph hashes to " +
        std::to_string(actual));
  }
  return snapshot;
}

void check_seeds(Snapshot& snapshot) {
  if (snapshot.baselines.seed_count() == 0) return;
  snapshot.seeds_dropped = snapshot.baselines.verify_seeds(
      snapshot.graph, snapshot_policy(snapshot.graph, snapshot.params));
}

}  // namespace

Snapshot decode_snapshot(const std::string& bytes) {
  Snapshot snapshot = parse_snapshot(bytes);
  check_seeds(snapshot);
  return snapshot;
}

void save_snapshot(const std::string& path, const Snapshot& snapshot) {
  const std::string bytes = encode_snapshot(snapshot);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw SnapshotError("cannot open " + path + " for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw SnapshotError("short write to " + path);
}

Snapshot load_snapshot(const std::string& path) {
  Snapshot snapshot;
  {
    // One buffer of the file's size: growing it while reading would hold
    // up to twice the file at once and leave the heap fragmented.
    std::error_code error;
    const std::uintmax_t size = std::filesystem::file_size(path, error);
    if (error) throw SnapshotError("cannot open " + path + ": " + error.message());
    std::ifstream in(path, std::ios::binary);
    if (!in) throw SnapshotError("cannot open " + path);
    std::string bytes(static_cast<std::size_t>(size), '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(size));
    if (!in) throw SnapshotError("short read from " + path);
    snapshot = parse_snapshot(bytes);
  }
  // The file's bytes are freed before the seed check builds its generation
  // engine, so the check does not raise the loader's peak memory.
  check_seeds(snapshot);
  return snapshot;
}

SnapshotInfo describe_snapshot(const Snapshot& snapshot) {
  SnapshotInfo info;
  info.topology_checksum = topology_checksum(snapshot.graph);
  info.ases = snapshot.graph.num_ases();
  info.links = snapshot.graph.num_links();
  info.regions = snapshot.graph.num_regions();
  info.baseline_targets = static_cast<std::uint32_t>(snapshot.baselines.size());
  info.params = snapshot.params;
  return info;
}

void write_snapshot_info(obs::JsonWriter& json, const SnapshotInfo& info) {
  json.field("format_version", static_cast<std::uint64_t>(info.format_version));
  json.field("topology_checksum", std::to_string(info.topology_checksum));
  json.field("ases", static_cast<std::uint64_t>(info.ases));
  json.field("links", info.links);
  json.field("regions", static_cast<std::uint64_t>(info.regions));
  json.field("baseline_targets", static_cast<std::uint64_t>(info.baseline_targets));
  json.field("seed", info.params.seed);
  json.field("scale", static_cast<std::uint64_t>(info.params.scale));
  json.field("tier1_shortest_path", info.params.tier1_shortest_path);
  json.field("stub_first_hop_filter", info.params.stub_first_hop_filter);
  json.field("tier2_min_degree_full_scale",
             static_cast<std::uint64_t>(info.params.tier2_min_degree_full_scale));
}

std::string snapshot_info_json(const SnapshotInfo& info) {
  obs::JsonWriter json;
  json.begin_object();
  write_snapshot_info(json, info);
  json.end_object();
  return std::move(json).str();
}

}  // namespace bgpsim::store
