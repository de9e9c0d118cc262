// Snapshot format: deterministic round-trips and the error taxonomy.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/scenario.hpp"
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

TEST(Snapshot, EmptyInputRaisesTruncatedError) {
  EXPECT_THROW(store::decode_snapshot(std::string()),
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

}  // namespace
}  // namespace bgpsim
