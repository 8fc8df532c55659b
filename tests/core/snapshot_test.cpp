// Tests for the snapshot subsystem (core/snapshot.hpp, DESIGN.md §8): a
// mid-run checkpoint restored into a fresh NowSystem and continued must be
// BIT-IDENTICAL to the uninterrupted run — partitions, node homes, the
// Byzantine ground truth, the system RNG's continued stream and the
// invariant samples — across shard counts {1, 4, 8}; and malformed files
// (wrong magic, unknown or previous version, truncation, corruption,
// parameter drift) must be rejected, never misparsed; and the byte codec
// under every frame stays little-endian and bounds-checked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/now.hpp"
#include "core/snapshot.hpp"

namespace now::core {
namespace {

NowParams snapshot_params() {
  NowParams p;
  p.max_size = 1 << 12;
  p.walk_mode = WalkMode::kSampleExact;
  p.k = 10;
  p.tau = 0.10;
  return p;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// A system snapshot is a payload that traces and checkpoints embed; these
// tests frame it in a file of their own with the same frame.
constexpr std::string_view kMagic = "NOWTEST1";
constexpr std::uint32_t kVersion = 3;

void save_file(const NowSystem& system, const std::string& path) {
  SnapshotWriter writer;
  save_system(system, writer);
  writer.write_file(path, kMagic, kVersion);
}

void load_file(NowSystem& system, const std::string& path) {
  SnapshotReader reader =
      SnapshotReader::read_file(path, kMagic, kVersion, kVersion);
  load_system(system, reader);
}

/// Sorted (cluster id, size) pairs — the full partition signature.
std::vector<std::pair<std::uint64_t, std::size_t>> partition_signature(
    const NowSystem& system) {
  std::vector<std::pair<std::uint64_t, std::size_t>> sig;
  for (const ClusterId id : system.state().cluster_ids()) {
    sig.emplace_back(id.value(), system.state().cluster_at(id).size());
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

/// One driven batch: 8 joins (1 Byzantine) + 8 leaves picked by
/// `victim_rng`. Identical state + identical victim stream => identical
/// batches, which the equivalence matrix relies on.
std::pair<std::vector<NodeId>, OpReport> drive_batch(NowSystem& system,
                                                     Rng& victim_rng,
                                                     std::size_t shards) {
  const auto leaves = system.state().sample_distinct_nodes(victim_rng, 8);
  return system.step_parallel_mixed(8, 1, leaves, shards);
}

void expect_identical(const NowSystem& a, const NowSystem& b,
                      const std::string& context) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << context;
  EXPECT_EQ(partition_signature(a), partition_signature(b)) << context;
  // Dense orders are part of the deterministic state, not just the sets.
  ASSERT_EQ(a.state().live_nodes().size(), b.state().live_nodes().size());
  for (std::size_t i = 0; i < a.state().live_nodes().size(); ++i) {
    ASSERT_EQ(a.state().live_nodes()[i], b.state().live_nodes()[i])
        << context << " live-node order at " << i;
  }
  ASSERT_EQ(a.state().byzantine.size(), b.state().byzantine.size());
  for (std::size_t i = 0; i < a.state().byzantine.size(); ++i) {
    ASSERT_EQ(a.state().byzantine.at_index(i),
              b.state().byzantine.at_index(i))
        << context << " byzantine order at " << i;
  }
  for (const NodeId node : a.state().live_nodes()) {
    ASSERT_EQ(a.state().home_of(node), b.state().home_of(node))
        << context << " home of " << node;
  }
}

TEST(SnapshotTest, RestoreThenContinueIsBitIdenticalAcrossShards) {
  // The tentpole guarantee, over the full matrix: 3 seeds x shards
  // {1, 4, 8}. Run A uninterrupted for T1 + T2 batches; run B for T1
  // batches, save, keep going (saving must not perturb the saving system);
  // restore into a fresh C and continue both for T2 batches. A, B and C
  // must agree on everything observable — including the system RNG's
  // continued state and the invariant report.
  constexpr std::size_t kShardAxis[] = {1, 4, 8};
  constexpr int kT1 = 3;
  constexpr int kT2 = 3;
  const NowParams params = snapshot_params();
  for (const std::uint64_t seed : {5ull, 21ull, 77ull}) {
    for (const std::size_t shards : kShardAxis) {
      const std::string context =
          "seed " + std::to_string(seed) + " shards " + std::to_string(shards);
      const std::string path = temp_path("now_roundtrip.snap");

      Metrics metrics_a;
      NowSystem a{params, metrics_a, seed};
      a.initialize(900, 90, InitTopology::kModeledSparse);
      Rng victims_a{seed ^ 0xBEEF};
      for (int t = 0; t < kT1; ++t) drive_batch(a, victims_a, shards);

      Metrics metrics_b;
      NowSystem b{params, metrics_b, seed};
      b.initialize(900, 90, InitTopology::kModeledSparse);
      Rng victims_b{seed ^ 0xBEEF};
      for (int t = 0; t < kT1; ++t) drive_batch(b, victims_b, shards);
      save_file(b, path);
      const auto victim_state = victims_b.state();

      Metrics metrics_c;
      NowSystem c{params, metrics_c, seed};
      load_file(c, path);
      Rng victims_c{0};
      victims_c.restore_state(victim_state);
      expect_identical(a, c, context + " at the checkpoint");

      for (int t = 0; t < kT2; ++t) {
        const auto [ja, ra] = drive_batch(a, victims_a, shards);
        const auto [jb, rb] = drive_batch(b, victims_b, shards);
        const auto [jc, rc] = drive_batch(c, victims_c, shards);
        ASSERT_EQ(ja, jc) << context << " continued batch " << t;
        ASSERT_EQ(jb, jc) << context << " continued batch " << t;
        EXPECT_EQ(ra.wave_count, rc.wave_count) << context;
        EXPECT_EQ(ra.conflicts, rc.conflicts) << context;
        EXPECT_EQ(ra.cost.messages, rc.cost.messages) << context;
        EXPECT_EQ(ra.cost.rounds, rc.cost.rounds) << context;
        EXPECT_EQ(ra.splits, rc.splits) << context;
        EXPECT_EQ(ra.merges, rc.merges) << context;
      }
      expect_identical(a, c, context + " after continuation");
      expect_identical(b, c, context + " saver vs restorer");
      // RNG-stream continuation: the restored generator sits in the
      // exact same state as the uninterrupted one.
      EXPECT_EQ(a.rng().state(), c.rng().state()) << context;
      // Invariant samples drawn now are identical field by field.
      const auto inv_a = a.check();
      const auto inv_c = c.check();
      EXPECT_EQ(inv_a.ok, inv_c.ok);
      EXPECT_EQ(inv_a.num_nodes, inv_c.num_nodes);
      EXPECT_EQ(inv_a.num_clusters, inv_c.num_clusters);
      EXPECT_EQ(inv_a.min_cluster_size, inv_c.min_cluster_size);
      EXPECT_EQ(inv_a.max_cluster_size, inv_c.max_cluster_size);
      EXPECT_EQ(inv_a.worst_byz_fraction, inv_c.worst_byz_fraction);
      EXPECT_EQ(inv_a.compromised_clusters, inv_c.compromised_clusters);
      EXPECT_EQ(inv_a.overlay_max_degree, inv_c.overlay_max_degree);
      EXPECT_EQ(inv_a.overlay_connected, inv_c.overlay_connected);
      std::remove(path.c_str());
    }
  }
}

TEST(SnapshotTest, LegacySequentialOpsContinueIdenticallyToo) {
  // Sequential join()/leave() draw from the system RNG directly, so this is
  // the path that exercises the saved rng state hardest.
  const NowParams params = snapshot_params();
  const std::string path = temp_path("now_legacy.snap");
  Metrics ma;
  Metrics mb;
  NowSystem a{params, ma, 123};
  NowSystem b{params, mb, 123};
  a.initialize(700, 70, InitTopology::kModeledSparse);
  b.initialize(700, 70, InitTopology::kModeledSparse);
  for (int i = 0; i < 10; ++i) {
    a.join(i % 3 == 0);
    b.join(i % 3 == 0);
  }
  save_file(b, path);
  Metrics mc;
  NowSystem c{params, mc, 123};
  load_file(c, path);
  for (int i = 0; i < 10; ++i) {
    const auto [na, ra] = a.join(false);
    const auto [nc, rc] = c.join(false);
    ASSERT_EQ(na, nc);
    EXPECT_EQ(ra.cost.messages, rc.cost.messages);
    a.leave(na);
    c.leave(nc);
  }
  expect_identical(a, c, "legacy ops");
  EXPECT_EQ(a.rng().state(), c.rng().state());
  std::remove(path.c_str());
}

TEST(SnapshotTest, LargeKRestoreRebuildsTheCacheTheSaverCarried) {
  // At small scales nearly every batch restructures, so the saver's
  // PlanCache was freshly built anyway. At this scale (~600 clusters, 4+4
  // ops/batch) the saver carries its cache across batches incrementally,
  // while the restored system starts with none and builds it from scratch
  // on its first batch. Snapshots persist no cache state, so the two
  // caches must draw identically: restore-then-continue stays
  // bit-identical.
  NowParams p;  // default k -> ~33-member clusters, ~600 of them
  p.max_size = 1 << 15;
  p.walk_mode = WalkMode::kSampleExact;
  const std::string path = temp_path("now_large_k.snap");
  Metrics ma;
  Metrics mb;
  NowSystem a{p, ma, 101};
  NowSystem b{p, mb, 101};
  a.initialize(20000, 1500, InitTopology::kModeledSparse);
  b.initialize(20000, 1500, InitTopology::kModeledSparse);
  Rng victims_a{101 ^ 5};
  Rng victims_b{101 ^ 5};
  for (int t = 0; t < 3; ++t) {
    const auto la = a.state().sample_distinct_nodes(victims_a, 4);
    const auto lb = b.state().sample_distinct_nodes(victims_b, 4);
    a.step_parallel_mixed(4, 1, la, 4);
    b.step_parallel_mixed(4, 1, lb, 4);
  }
  save_file(b, path);
  Metrics mc;
  NowSystem c{p, mc, 101};
  load_file(c, path);
  Rng victims_c{0};
  victims_c.restore_state(victims_b.state());
  for (int t = 0; t < 4; ++t) {
    const auto la = a.state().sample_distinct_nodes(victims_a, 4);
    const auto lc = c.state().sample_distinct_nodes(victims_c, 4);
    ASSERT_EQ(la, lc) << "batch " << t;
    const auto [ja, ra] = a.step_parallel_mixed(4, 1, la, 4);
    const auto [jc, rc] = c.step_parallel_mixed(4, 1, lc, 4);
    ASSERT_EQ(ja, jc) << "batch " << t;
    EXPECT_EQ(ra.cost.messages, rc.cost.messages) << "batch " << t;
  }
  expect_identical(a, c, "large-k continuation");
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsWrongMagicVersionTruncationAndCorruption) {
  const NowParams params = snapshot_params();
  const std::string path = temp_path("now_reject.snap");
  Metrics metrics;
  NowSystem system{params, metrics, 9};
  system.initialize(300, 30, InitTopology::kModeledSparse);
  save_file(system, path);

  const auto read_bytes = [&]() {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto write_bytes = [&](const std::string& bytes,
                               const std::string& where) {
    std::ofstream out(where, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamoff>(bytes.size()));
  };
  const std::string good = read_bytes();

  const auto expect_rejected = [&](const std::string& bytes,
                                   const char* what) {
    const std::string bad_path = temp_path("now_reject_bad.snap");
    write_bytes(bytes, bad_path);
    Metrics m;
    NowSystem fresh{params, m, 9};
    EXPECT_THROW(load_file(fresh, bad_path), SnapshotError) << what;
    std::remove(bad_path.c_str());
  };

  // Wrong magic.
  std::string bad = good;
  bad[0] = 'X';
  expect_rejected(bad, "magic");
  // Unknown (future) format version.
  bad = good;
  bad[8] = static_cast<char>(kVersion + 1);
  expect_rejected(bad, "version");
  // Truncation, both mid-payload and inside the checksum.
  expect_rejected(good.substr(0, good.size() / 2), "truncated payload");
  expect_rejected(good.substr(0, good.size() - 3), "truncated checksum");
  // Flipped payload byte: the checksum must catch it.
  bad = good;
  bad[good.size() / 2] ^= static_cast<char>(0x40);
  expect_rejected(bad, "corruption");

  // Parameter drift: same file, different behavior-relevant params.
  NowParams drifted = params;
  drifted.k = params.k + 1;
  Metrics m2;
  NowSystem other{drifted, m2, 9};
  EXPECT_THROW(load_file(other, path), SnapshotError);

  // A system that already ran must refuse to load over itself.
  EXPECT_THROW(load_file(system, path), SnapshotError);
  std::remove(path.c_str());
}

TEST(SnapshotTest, OverlayVertexThatIsNotAClusterIsRejected) {
  // The overlay section is the tail of the state payload: the vertex count,
  // the vertex ids, then each vertex's neighbor list. Rewrite it with one
  // extra isolated vertex that names no cluster: every edge stays
  // consistent, so only the vertex check can catch it.
  Metrics metrics;
  NowSystem system{snapshot_params(), metrics, 9};
  system.initialize(300, 30, InitTopology::kModeledSparse);
  const NowState& state = system.state();
  SnapshotWriter saved;
  snapshot_save_state(state, saved);
  const graph::Graph& g = state.overlay().graph();
  const std::size_t section_bytes =
      8 + 16 * g.vertex_order().size() + 16 * g.num_edges();
  const std::vector<std::uint8_t>& payload = saved.buffer();
  ASSERT_GT(payload.size(), section_bytes);

  const auto rewrite = [&](bool extra_vertex) {
    SnapshotWriter w;
    w.bytes(payload.data(), payload.size() - section_bytes);
    const ClusterId::value_type bogus = 1ull << 40;
    w.u64(g.vertex_order().size() + (extra_vertex ? 1 : 0));
    for (const graph::Vertex v : g.vertex_order()) w.u64(v);
    if (extra_vertex) w.u64(bogus);
    for (const graph::Vertex v : g.vertex_order()) {
      w.u64(g.neighbors(v).size());
      for (const graph::Vertex n : g.neighbors(v)) w.u64(n);
    }
    if (extra_vertex) w.u64(0);
    return SnapshotReader{w.buffer()};
  };

  // The unmodified rewrite loads, populations included.
  NowState same{over::OverParams{}};
  SnapshotReader same_reader = rewrite(false);
  snapshot_load_state(same, same_reader);
  for (const ClusterId id : state.cluster_ids()) {
    EXPECT_EQ(same.neighborhood_population(id),
              state.neighborhood_population(id));
  }
  NowState bad{over::OverParams{}};
  SnapshotReader bad_reader = rewrite(true);
  EXPECT_THROW(snapshot_load_state(bad, bad_reader), SnapshotError);
}

TEST(SnapshotTest, ParamsThatRunsRecordStillLoad) {
  // read_params rejects what no NowSystem accepts; every value a test,
  // bench or corpus trace records must still round-trip.
  const auto round_trip = [](const NowParams& p) {
    SnapshotWriter w;
    save_params(p, w);
    SnapshotReader r{w.buffer()};
    return read_params(r);
  };
  for (const double l : {1.2, 1.5, 2.0, 1e9}) {
    NowParams p;
    p.l = l;
    EXPECT_EQ(round_trip(p).l, l);
  }
  for (const double tau : {0.0, 0.05, 0.35}) {
    NowParams p;
    p.tau = tau;
    EXPECT_EQ(round_trip(p).tau, tau);
  }
  NowParams p;
  p.max_size = 2;
  p.alpha = 0.0;
  p.walk_factor = 0.25;
  const NowParams got = round_trip(p);
  EXPECT_EQ(got.max_size, 2u);
  EXPECT_EQ(got.alpha, 0.0);
  EXPECT_EQ(got.walk_factor, 0.25);
}

TEST(SnapshotTest, PreviousFormatVersionFailsAtTheVersionCheck) {
  // A format that embeds the system snapshot bumps its version whenever the
  // payload layout changes (DESIGN.md §8). A file one version behind is
  // intact and checksummed but carries the old layout: it must fail as an
  // unsupported version, never reach the payload parser.
  const NowParams params = snapshot_params();
  const std::string path = temp_path("now_previous.snap");
  Metrics metrics;
  NowSystem system{params, metrics, 9};
  system.initialize(300, 30, InitTopology::kModeledSparse);
  SnapshotWriter writer;
  save_system(system, writer);
  writer.write_file(path, kMagic, kVersion - 1);

  Metrics m;
  NowSystem fresh{params, m, 9};
  try {
    load_file(fresh, path);
    ADD_FAILURE() << "a previous-version file loaded";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version " +
                                         std::to_string(kVersion - 1)),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fresh.initialized());
  std::remove(path.c_str());
}

// ----------------------------------------------------------- byte codec

TEST(SnapshotCodecTest, PrimitivesRoundTripLittleEndian) {
  SnapshotWriter w;
  w.u8(0xAB);
  w.u32(0x01020304u);
  w.u64(0x1122334455667788ull);
  w.i64(-2);
  w.f64(-0.1);
  w.str("now");
  const std::uint8_t blob[3] = {7, 8, 9};
  w.bytes(blob, sizeof blob);

  // Fixed-width fields are little-endian on every host.
  const std::vector<std::uint8_t>& buf = w.buffer();
  ASSERT_GE(buf.size(), 13u);
  EXPECT_EQ(buf[0], 0xAB);
  EXPECT_EQ(buf[1], 0x04);
  EXPECT_EQ(buf[4], 0x01);
  EXPECT_EQ(buf[5], 0x88);
  EXPECT_EQ(buf[12], 0x11);

  SnapshotReader r{buf};
  EXPECT_EQ(r.size(), buf.size());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x1122334455667788ull);
  EXPECT_EQ(r.i64(), -2);
  EXPECT_EQ(r.f64(), -0.1);
  EXPECT_EQ(r.str(), "now");
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_FALSE(r.at_end());
  const auto view = r.view(3);
  EXPECT_EQ(std::vector<std::uint8_t>(view.begin(), view.end()),
            (std::vector<std::uint8_t>{7, 8, 9}));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotCodecTest, ReadsPastTheEndThrowInsteadOfOverrunning) {
  const std::vector<std::uint8_t> three = {1, 2, 3};
  EXPECT_THROW(SnapshotReader{three}.u32(), SnapshotError);
  EXPECT_THROW(SnapshotReader{three}.u64(), SnapshotError);
  EXPECT_THROW(SnapshotReader{three}.f64(), SnapshotError);
  EXPECT_THROW(SnapshotReader{three}.view(4), SnapshotError);
  std::uint8_t out[4];
  EXPECT_THROW(SnapshotReader{three}.bytes(out, 4), SnapshotError);
  EXPECT_THROW(SnapshotReader{std::vector<std::uint8_t>{}}.u8(),
               SnapshotError);

  // A length or count field larger than what follows fails before any
  // allocation, however large it claims to be.
  SnapshotWriter w;
  w.u64(~std::uint64_t{0});
  w.u8(0);
  EXPECT_THROW(SnapshotReader{w.buffer()}.str(), SnapshotError);
  EXPECT_THROW(SnapshotReader{w.buffer()}.count(8), SnapshotError);
  EXPECT_THROW(SnapshotReader{w.buffer()}.count(1), SnapshotError);

  // A count that fits is returned as written.
  SnapshotWriter fits;
  fits.u64(2);
  fits.u64(10);
  fits.u64(20);
  SnapshotReader r{fits.buffer()};
  EXPECT_EQ(r.count(8), 2u);
  EXPECT_EQ(r.remaining(), 16u);
}

TEST(SnapshotCodecTest, ReadEnumRejectsValuesPastTheLastEnumerator) {
  SnapshotWriter w;
  w.u32(static_cast<std::uint32_t>(WalkMode::kSampleExact));
  w.u32(static_cast<std::uint32_t>(WalkMode::kSampleExact) + 1);
  SnapshotReader r{w.buffer()};
  EXPECT_EQ(read_enum(r, WalkMode::kSampleExact, "walk_mode"),
            WalkMode::kSampleExact);
  try {
    (void)read_enum(r, WalkMode::kSampleExact, "walk_mode");
    ADD_FAILURE() << "an out-of-range enum value was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("walk_mode"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace now::core
