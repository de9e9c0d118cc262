// Snapshot format: deterministic round-trips and the error taxonomy.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bgp/equilibrium_engine.hpp"
#include "bgp/generation_engine.hpp"
#include "core/scenario.hpp"
#include "hijack/hijack_simulator.hpp"
#include "obs/metrics.hpp"
#include "store/baseline.hpp"
#include "serve_support.hpp"
#include "store/snapshot.hpp"

namespace bgpsim {
namespace {

using test::make_snapshot;

TEST(Snapshot, RoundTripIsByteIdentical) {
  const struct {
    std::uint32_t scale;
    std::uint64_t seed;
  } matrix[] = {{1000, 101}, {1000, 999}, {2000, 303}, {2000, 7}};

  for (const auto& [scale, seed] : matrix) {
    const store::Snapshot original = make_snapshot(scale, seed);
    const std::string bytes = store::encode_snapshot(original);
    const store::Snapshot decoded = store::decode_snapshot(bytes);

    // Re-encoding the decoded snapshot must reproduce the original bytes:
    // the graph round-trips field-identically and section order is fixed.
    EXPECT_EQ(store::encode_snapshot(decoded), bytes)
        << "re-save differs at scale " << scale << " seed " << seed;

    EXPECT_EQ(decoded.graph.num_ases(), original.graph.num_ases());
    EXPECT_EQ(decoded.graph.num_links(), original.graph.num_links());
    EXPECT_EQ(decoded.params.seed, original.params.seed);
    EXPECT_EQ(decoded.params.scale, original.params.scale);
    EXPECT_EQ(decoded.baselines.targets(), original.baselines.targets());
  }
}

TEST(Snapshot, SaveLoadThroughFile) {
  const store::Snapshot original = make_snapshot(1000, 55);
  const std::string path = testing::TempDir() + "/bgpsim_snapshot_test.snap";
  store::save_snapshot(path, original);
  const store::Snapshot loaded = store::load_snapshot(path);
  EXPECT_EQ(store::encode_snapshot(loaded), store::encode_snapshot(original));
  std::remove(path.c_str());
}

TEST(Snapshot, DescribeAndInfoJson) {
  const store::Snapshot snapshot = make_snapshot(1000, 55);
  const store::SnapshotInfo info = store::describe_snapshot(snapshot);
  EXPECT_EQ(info.ases, snapshot.graph.num_ases());
  EXPECT_EQ(info.baseline_targets, snapshot.baselines.size());
  EXPECT_EQ(info.params.seed, 55u);

  const std::string json = store::snapshot_info_json(info);
  EXPECT_NE(json.find("\"ases\":"), std::string::npos);
  EXPECT_NE(json.find("\"baseline_targets\":"), std::string::npos);
  EXPECT_NE(json.find("\"topology_checksum\":"), std::string::npos);
}

// ---- error taxonomy: every corruption mode raises its own type ------------

TEST(Snapshot, TruncationRaisesTruncatedError) {
  const std::string bytes = store::encode_snapshot(make_snapshot(1000, 3));
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{20}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(store::decode_snapshot(bytes.substr(0, keep)),
                 store::SnapshotTruncatedError)
        << "prefix of " << keep << " bytes";
  }
}

TEST(Snapshot, BadMagicRaisesCorruptError) {
  std::string bytes = store::encode_snapshot(make_snapshot(1000, 3));
  bytes[0] = 'X';
  EXPECT_THROW(store::decode_snapshot(bytes), store::SnapshotCorruptError);
}

TEST(Snapshot, PayloadFlipRaisesCorruptError) {
  std::string bytes = store::encode_snapshot(make_snapshot(1000, 3));
  bytes[bytes.size() - 1] ^= 0x5a;  // inside the last section's payload
  EXPECT_THROW(store::decode_snapshot(bytes), store::SnapshotCorruptError);
}

TEST(Snapshot, UnknownVersionRaisesVersionError) {
  std::string bytes = store::encode_snapshot(make_snapshot(1000, 3));
  bytes[8] = 0x7f;  // format version field follows the 8-byte magic
  EXPECT_THROW(store::decode_snapshot(bytes), store::SnapshotVersionError);
}

TEST(Snapshot, TopologyChecksumMismatchRaisesChecksumError) {
  // The topology checksum lives at offset 16 (magic 8 + version 4 +
  // reserved 4). Flipping it leaves every section checksum intact, so the
  // decode reaches the final cross-check and must fail there.
  std::string bytes = store::encode_snapshot(make_snapshot(1000, 3));
  bytes[16] ^= 0x01;
  EXPECT_THROW(store::decode_snapshot(bytes), store::SnapshotChecksumError);
}

TEST(Snapshot, LoadRejectsWhatIsNotAFile) {
  EXPECT_THROW(store::load_snapshot(testing::TempDir() + "/bgpsim_no_such.snap"),
               store::SnapshotError);
  EXPECT_THROW(store::load_snapshot(testing::TempDir()), store::SnapshotError);
}

TEST(Snapshot, EmptyInputRaisesTruncatedError) {
  EXPECT_THROW(store::decode_snapshot(std::string()),
               store::SnapshotTruncatedError);
}

// ---- the optional generation-seed section ('GVIA') ------------------------

store::Snapshot seeded_snapshot(std::uint32_t scale, std::uint64_t seed) {
  store::Snapshot snapshot = make_snapshot(scale, seed, 6);
  const Scenario scenario = Scenario::from_snapshot(snapshot);
  snapshot.baselines.compute_seeds(snapshot.graph, scenario.policy());
  return snapshot;
}

void expect_same_seeds(const store::BaselineStore& a, const store::BaselineStore& b) {
  ASSERT_EQ(a.seed_count(), b.seed_count());
  for (const AsId target : a.targets()) {
    const store::GenerationSeed* sa = a.find_seed(target);
    const store::GenerationSeed* sb = b.find_seed(target);
    ASSERT_EQ(sa == nullptr, sb == nullptr) << "target " << target;
    if (sa == nullptr) continue;
    EXPECT_EQ(sa->generations, sb->generations);
    ASSERT_EQ(sa->vias.size(), sb->vias.size());
    for (std::size_t i = 0; i < sa->vias.size(); ++i) {
      EXPECT_EQ(sa->vias[i].as, sb->vias[i].as);
      EXPECT_EQ(sa->vias[i].via, sb->vias[i].via);
    }
  }
}

TEST(Snapshot, SeededRoundTripIsByteIdentical) {
  for (const std::uint64_t seed : {101u, 7u}) {
    const store::Snapshot original = seeded_snapshot(2000, seed);
    ASSERT_EQ(original.baselines.seed_count(), original.baselines.size());
    const std::string bytes = store::encode_snapshot(original);
    const store::Snapshot decoded = store::decode_snapshot(bytes);
    EXPECT_EQ(store::encode_snapshot(decoded), bytes) << "seed " << seed;
    expect_same_seeds(decoded.baselines, original.baselines);
    EXPECT_EQ(decoded.seeds_dropped, 0u);
  }
}

std::uint32_t section_count(const std::string& bytes) {
  // magic 8, version 4, reserved 4, topology checksum 8, then the count.
  std::uint32_t count = 0;
  for (int i = 3; i >= 0; --i) {
    count = (count << 8) | static_cast<unsigned char>(bytes[24 + i]);
  }
  return count;
}

/// A snapshot without seeds is the three-section layout, and attacks on it
/// replay unseeded with the answers of a seeded store.
TEST(Snapshot, ThreeSectionSnapshotsReplayUnseeded) {
  const store::Snapshot unseeded = make_snapshot(1500, 9, 4);
  const std::string bytes = store::encode_snapshot(unseeded);
  EXPECT_EQ(section_count(bytes), 3u);
  const store::Snapshot decoded = store::decode_snapshot(bytes);
  EXPECT_EQ(decoded.baselines.seed_count(), 0u);
  const store::Snapshot seeded = seeded_snapshot(1500, 9);
  EXPECT_EQ(section_count(store::encode_snapshot(seeded)), 4u);

  const Scenario scenario = Scenario::from_snapshot(decoded);
  HijackSimulator plain(scenario.graph(), scenario.sim_config());
  plain.attach_baseline(
      std::make_shared<const store::BaselineStore>(decoded.baselines));
  HijackSimulator fast(scenario.graph(), scenario.sim_config());
  fast.attach_baseline(
      std::make_shared<const store::BaselineStore>(seeded.baselines));
  const std::vector<AsId>& transits = scenario.transit();
  for (const AsId victim : decoded.baselines.targets()) {
    for (std::size_t k = 0; k < 3; ++k) {
      const AsId attacker = transits[(victim + 17 * k) % transits.size()];
      if (attacker == victim) continue;
      PropagationTrace plain_trace, fast_trace;
      const AttackResult p = plain.attack_with_trace(victim, attacker, plain_trace);
      const AttackResult f = fast.attack_with_trace(victim, attacker, fast_trace);
      EXPECT_EQ(p.generations, f.generations);
      EXPECT_EQ(p.polluted_ases, f.polluted_ases);
      ASSERT_EQ(plain_trace.frames.size(), fast_trace.frames.size());
      for (std::size_t i = 0; i < plain_trace.frames.size(); ++i) {
        EXPECT_EQ(plain_trace.frames[i].polluted_so_far,
                  fast_trace.frames[i].polluted_so_far);
        EXPECT_EQ(plain_trace.frames[i].messages_accepted,
                  fast_trace.frames[i].messages_accepted);
      }
    }
  }
}

/// The seed BaselineStore::verify_seeds checks: the most via patches, the
/// lowest target among equals.
AsId checked_target(const store::BaselineStore& store) {
  AsId checked = kInvalidAs;
  std::size_t most = 0;
  for (const AsId target : store.targets()) {
    const std::size_t patches = store.find_seed(target)->vias.size();
    if (checked == kInvalidAs || patches > most) {
      checked = target;
      most = patches;
    }
  }
  return checked;
}

#if defined(BGPSIM_OBS_DISABLED)
std::uint64_t seeded_phases() { return 0; }  // counters compile out
#else
std::uint64_t seeded_phases() {
  return obs::registry().counter("engine.legit_seeded").value();
}
#endif

/// Seeds that this build's generation engine does not reproduce (as a
/// snapshot written by a build with another arrival order would carry) are
/// structurally valid, so decoding accepts them, finds the checked seed
/// wrong and drops every seed: attacks replay unseeded and answer as a
/// simulator without baselines does.
TEST(Snapshot, SeedsThisBuildDoesNotReproduceAreDropped) {
  const store::Snapshot original = seeded_snapshot(2000, 7);
  const AsId checked = checked_target(original.baselines);
  const store::GenerationSeed& seed = *original.baselines.find_seed(checked);
  ASSERT_FALSE(seed.vias.empty());

  // One tie broken the baseline's way (the lowest-id via) instead, and the
  // generation count off by one; both keep the seed the checked one.
  store::GenerationSeed reverted = seed;
  const RouteTable& table = *original.baselines.find(checked);
  reverted.vias.front().via = table.routes[seed.vias.front().as].via;
  store::GenerationSeed recounted = seed;
  ++recounted.generations;
  for (const store::GenerationSeed& tampered : {reverted, recounted}) {
    store::Snapshot copy = original;
    copy.baselines.put_seed(checked, tampered);
    const store::Snapshot decoded =
        store::decode_snapshot(store::encode_snapshot(copy));
    EXPECT_EQ(decoded.seeds_dropped, original.baselines.size());
    EXPECT_EQ(decoded.baselines.seed_count(), 0u);
    EXPECT_EQ(section_count(store::encode_snapshot(decoded)), 3u);
    EXPECT_EQ(decoded.baselines.targets(), original.baselines.targets());

    const Scenario scenario = Scenario::from_snapshot(decoded);
    HijackSimulator loaded(scenario.graph(), scenario.sim_config());
    loaded.attach_baseline(
        std::make_shared<const store::BaselineStore>(decoded.baselines));
    HijackSimulator plain(scenario.graph(), scenario.sim_config());
    const std::vector<AsId>& transits = scenario.transit();
    for (std::size_t k = 0; k < 3; ++k) {
      const AsId attacker = transits[(checked + 29 * k) % transits.size()];
      if (attacker == checked) continue;
      const std::uint64_t before = seeded_phases();
      PropagationTrace loaded_trace, plain_trace;
      const AttackResult l = loaded.attack_with_trace(checked, attacker, loaded_trace);
      const AttackResult p = plain.attack_with_trace(checked, attacker, plain_trace);
      EXPECT_EQ(seeded_phases(), before);
      EXPECT_EQ(l.generations, p.generations);
      EXPECT_EQ(l.polluted_ases, p.polluted_ases);
      ASSERT_EQ(loaded_trace.frames.size(), plain_trace.frames.size());
      for (std::size_t i = 0; i < plain_trace.frames.size(); ++i) {
        ASSERT_EQ(loaded_trace.frames[i].edges.size(),
                  plain_trace.frames[i].edges.size());
        for (std::size_t e = 0; e < plain_trace.frames[i].edges.size(); ++e) {
          EXPECT_EQ(loaded_trace.frames[i].edges[e].from,
                    plain_trace.frames[i].edges[e].from);
          EXPECT_EQ(loaded_trace.frames[i].edges[e].to,
                    plain_trace.frames[i].edges[e].to);
        }
      }
    }
  }
}

/// The policy decoding checks seeds under is the one the scenario runs.
TEST(Snapshot, PolicyIsTheScenarios) {
  store::Snapshot snapshot = make_snapshot(1500, 4, 1);
  for (const bool tier1_shortest : {true, false}) {
    for (const bool stub_filter : {false, true}) {
      snapshot.params.tier1_shortest_path = tier1_shortest;
      snapshot.params.stub_first_hop_filter = stub_filter;
      const PolicyConfig expected = Scenario::from_snapshot(snapshot).policy();
      const PolicyConfig got = store::snapshot_policy(snapshot.graph, snapshot.params);
      EXPECT_EQ(got.tier1_shortest_path, expected.tier1_shortest_path);
      EXPECT_EQ(got.stub_first_hop_filter, expected.stub_first_hop_filter);
      EXPECT_EQ(got.is_tier1, expected.is_tier1);
    }
  }
}

// ---- malformed 'GVIA' entries ----------------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

/// `base` (a three-section snapshot) with one more section, 'GVIA', holding
/// `payload` under a valid checksum.
std::string with_seed_section(const std::string& base, const std::string& payload) {
  std::string out = base;
  out[24] = 4;  // section count (low byte)
  put_u32(out, 0x41495647u);  // 'GVIA' little-endian
  put_u32(out, 0);
  put_u64(out, payload.size());
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : payload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  put_u64(out, hash);
  out += payload;
  return out;
}

struct Patch {
  std::uint32_t as;
  std::uint32_t via;
};

/// One target entry: target, generations, patches.
std::string seed_entry(AsId target, const std::vector<Patch>& patches) {
  std::string out;
  put_u32(out, target);
  put_u32(out, 5);
  put_u32(out, static_cast<std::uint32_t>(patches.size()));
  for (const Patch& p : patches) {
    put_u32(out, p.as);
    put_u32(out, p.via);
  }
  return out;
}

std::string seed_payload(const std::vector<std::string>& entries) {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const std::string& entry : entries) out += entry;
  return out;
}

TEST(Snapshot, MalformedSeedsRaiseCorruptError) {
  const store::Snapshot snapshot = make_snapshot(1000, 3, 3);
  const std::string base = store::encode_snapshot(snapshot);
  const AsGraph& g = snapshot.graph;
  const std::uint32_t n = g.num_ases();
  const std::vector<AsId> targets = snapshot.baselines.targets();
  ASSERT_GE(targets.size(), 2u);
  const AsId target = targets.front();
  const RouteTable& table = *snapshot.baselines.find(target);

  // Two learned routes, each with one neighbor one hop shorter in its class
  // (its baseline via) and one neighbor that is not; one non-neighbor.
  std::vector<AsId> learned;
  AsId off_length = kInvalidAs;  // a neighbor of learned[0] of another length
  for (AsId v = 0; v < n && learned.size() < 2; ++v) {
    const Route& route = table.routes[v];
    if (!route.valid() || route.cls == RouteClass::Self) continue;
    learned.push_back(v);
  }
  ASSERT_EQ(learned.size(), 2u);
  const AsId a = learned[0];
  const AsId b = learned[1];
  for (const Neighbor& nbr : g.neighbors(a)) {
    if (table.routes[nbr.id].path_len + 1 != table.routes[a].path_len) {
      off_length = nbr.id;
      break;
    }
  }
  AsId stranger = 0;
  while (stranger == a || g.relationship(a, stranger)) ++stranger;
  const AsId via_a = table.routes[a].via;
  const AsId via_b = table.routes[b].via;

  // The positive control: well-formed entries decode. They are not what
  // this build's generation engine leaves behind, so decoding drops them.
  const std::string good = with_seed_section(
      base, seed_payload({seed_entry(target, {{a, via_a}, {b, via_b}}),
                          seed_entry(targets[1], {})}));
  const store::Snapshot decoded = store::decode_snapshot(good);
  EXPECT_EQ(decoded.seeds_dropped, 2u);
  EXPECT_EQ(decoded.baselines.seed_count(), 0u);
  EXPECT_EQ(store::encode_snapshot(decoded), base);

  AsId unstored = 0;
  while (snapshot.baselines.contains(unstored)) ++unstored;
  std::vector<std::pair<std::string, std::string>> cases = {
      {"target without a baseline", seed_payload({seed_entry(unstored, {})})},
      {"AS out of range", seed_payload({seed_entry(target, {{n, via_a}})})},
      {"via out of range", seed_payload({seed_entry(target, {{a, n}})})},
      {"via not a neighbor", seed_payload({seed_entry(target, {{a, stranger}})})},
      {"AS without a learned route",
       seed_payload({seed_entry(target, {{target, g.neighbors(target)[0].id}})})},
      {"unsorted ASes",
       seed_payload({seed_entry(target, {{b, via_b}, {a, via_a}})})},
      {"duplicate ASes",
       seed_payload({seed_entry(target, {{a, via_a}, {a, via_a}})})},
      {"targets not ascending",
       seed_payload({seed_entry(targets[1], {}), seed_entry(target, {})})},
      {"duplicate targets",
       seed_payload({seed_entry(target, {}), seed_entry(target, {})})},
      {"trailing bytes", seed_payload({seed_entry(target, {})}) + "x"},
  };
  if (off_length != kInvalidAs) {
    cases.emplace_back("via's length + 1 is not the AS's length",
                       seed_payload({seed_entry(target, {{a, off_length}})}));
  }
  for (const auto& [name, payload] : cases) {
    EXPECT_THROW(store::decode_snapshot(with_seed_section(base, payload)),
                 store::SnapshotCorruptError)
        << name;
  }
  // A truncated entry is a truncation.
  EXPECT_THROW(store::decode_snapshot(with_seed_section(
                   base, seed_payload({seed_entry(target, {{a, via_a}})})
                             .substr(0, 20))),
               store::SnapshotTruncatedError);
}

// ---- BaselineStore --------------------------------------------------------

TEST(BaselineStore, ComputeFindAndTargets) {
  ScenarioParams params;
  params.topology.total_ases = 600;
  params.topology.seed = 11;
  const Scenario scenario = Scenario::generate(params);

  const std::vector<AsId> targets{30, 5, 30, 200};  // duplicate on purpose
  const store::BaselineStore store =
      store::BaselineStore::compute(scenario.graph(), scenario.policy(), targets);

  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.targets(), (std::vector<AsId>{5, 30, 200}));
  EXPECT_TRUE(store.contains(5));
  EXPECT_FALSE(store.contains(6));
  ASSERT_NE(store.find(30), nullptr);
  EXPECT_EQ(store.find(30)->routes.size(), scenario.graph().num_ases());
  // A baseline has no attacker routes and the target routes to itself.
  EXPECT_EQ(store.find(30)->count_origin(Origin::Attacker), 0u);
  EXPECT_EQ(store.find(30)->routes[30].cls, RouteClass::Self);
  EXPECT_GT(store.memory_bytes(), 0u);
}

/// The parallel build is the serial one: every table equals a serial
/// EquilibriumEngine::compute, and duplicates run once, so the counters
/// count one engine run per distinct target.
TEST(BaselineStore, ParallelComputeEqualsSerialEngine) {
  ScenarioParams params;
  params.topology.total_ases = 1500;
  params.topology.seed = 29;
  const Scenario scenario = Scenario::generate(params);
  const std::vector<AsId> targets{900, 12, 400, 12, 1499, 0, 900, 77, 650, 3};
  const std::size_t distinct = 8;

#if !defined(BGPSIM_OBS_DISABLED)
  const std::uint64_t computed_before =
      obs::registry().counter("store.baselines_computed").value();
  const std::uint64_t runs_before =
      obs::registry().counter("engine.equilibrium_runs").value();
#endif
  const store::BaselineStore store =
      store::BaselineStore::compute(scenario.graph(), scenario.policy(), targets);
#if !defined(BGPSIM_OBS_DISABLED)
  EXPECT_EQ(obs::registry().counter("store.baselines_computed").value() -
                computed_before,
            distinct);
  EXPECT_EQ(obs::registry().counter("engine.equilibrium_runs").value() -
                runs_before,
            distinct);
#endif
  EXPECT_EQ(store.size(), distinct);
  EXPECT_EQ(store.targets(), (std::vector<AsId>{0, 3, 12, 77, 400, 650, 900, 1499}));
  EXPECT_EQ(store.seed_count(), 0u);
  EquilibriumEngine serial(scenario.graph(), scenario.policy());
  RouteTable expected;
  for (const AsId target : store.targets()) {
    serial.compute(target, nullptr, expected);
    const RouteTable& got = *store.find(target);
    ASSERT_EQ(got.routes.size(), expected.routes.size());
    for (AsId v = 0; v < expected.routes.size(); ++v) {
      const Route& x = expected.routes[v];
      const Route& y = got.routes[v];
      ASSERT_TRUE(x.origin == y.origin && x.cls == y.cls &&
                  x.path_len == y.path_len && x.via == y.via)
          << "target " << target << ", AS " << v;
    }
  }
}

/// The parallel seed build is the serial one: every seed is a serial
/// generation engine's legitimate announce diffed against its baseline, and
/// replacing a baseline drops its seed.
TEST(BaselineStore, SeedsEqualASerialGenerationEngine) {
  const store::Snapshot snapshot = make_snapshot(1200, 17, 5);
  const Scenario scenario = Scenario::from_snapshot(snapshot);
  store::BaselineStore one = snapshot.baselines;
  one.compute_seeds(snapshot.graph, scenario.policy());
  store::BaselineStore serial = snapshot.baselines;
  GenerationEngine engine(snapshot.graph, scenario.policy());
  for (const AsId target : serial.targets()) {
    const RouteTable& table = *serial.find(target);
    engine.reset();
    store::GenerationSeed seed;
    seed.generations = engine.announce(target, Origin::Legit).generations;
    for (AsId v = 0; v < table.routes.size(); ++v) {
      if (engine.route(v).via != table.routes[v].via) {
        seed.vias.push_back(ViaPatch{v, engine.route(v).via});
      }
    }
    serial.put_seed(target, std::move(seed));
  }
  expect_same_seeds(one, serial);

  const AsId target = one.targets().front();
  ASSERT_NE(one.find_seed(target), nullptr);
  one.put(target, *one.find(target));
  EXPECT_EQ(one.find_seed(target), nullptr);
  EXPECT_EQ(one.seed_count(), one.size() - 1);
  EXPECT_THROW(one.put_seed(kInvalidAs - 1, store::GenerationSeed{}),
               PreconditionError);
}

}  // namespace
}  // namespace bgpsim
