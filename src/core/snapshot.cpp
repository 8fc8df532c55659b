#include "core/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <type_traits>

#include "core/now.hpp"
#include "core/state.hpp"

namespace now::core {

namespace {

constexpr std::size_t kMagicSize = 8;

/// RAII stdio handle (no iostreams on the snapshot path: the writer
/// already owns a buffer, so one fwrite/fread round-trip is all the IO).
struct File {
  std::FILE* handle = nullptr;
  explicit File(std::FILE* f) : handle(f) {}
  ~File() {
    if (handle != nullptr) std::fclose(handle);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
};

/// Bulk little-endian NodeId block. On little-endian hosts (every CI
/// target) this is one memcpy of the slab extent; the portable fallback
/// writes per-element u64 in the identical byte layout.
void write_node_ids(SnapshotWriter& w, std::span<const NodeId> ids) {
  static_assert(sizeof(NodeId) == sizeof(std::uint64_t) &&
                std::is_trivially_copyable_v<NodeId>);
  if constexpr (std::endian::native == std::endian::little) {
    w.bytes(ids.data(), ids.size() * sizeof(NodeId));
  } else {
    for (const NodeId id : ids) w.u64(id.value());
  }
}

void read_node_ids(SnapshotReader& r, std::span<NodeId> out) {
  if constexpr (std::endian::native == std::endian::little) {
    r.bytes(out.data(), out.size() * sizeof(NodeId));
  } else {
    for (NodeId& id : out) id = NodeId{r.u64()};
  }
}

}  // namespace

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

void SnapshotWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

double SnapshotReader::f64() { return std::bit_cast<double>(u64()); }

void SnapshotWriter::write_file(const std::string& path,
                                std::string_view magic,
                                std::uint32_t version) const {
  assert(magic.size() == kMagicSize && "magic must be exactly 8 bytes");
  SnapshotWriter frame;
  for (const char c : magic) frame.u8(static_cast<std::uint8_t>(c));
  frame.u32(version);
  const File file{std::fopen(path.c_str(), "wb")};
  if (file.handle == nullptr) {
    throw SnapshotError("cannot open for writing: " + path);
  }
  const auto put = [&](const std::vector<std::uint8_t>& bytes) {
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), file.handle) !=
            bytes.size()) {
      throw SnapshotError("short write: " + path);
    }
  };
  put(frame.buffer());
  put(buffer_);
  SnapshotWriter checksum;
  checksum.u64(fnv1a64(buffer_.data(), buffer_.size()));
  put(checksum.buffer());
}

SnapshotReader SnapshotReader::read_file(const std::string& path,
                                         std::string_view magic,
                                         std::uint32_t min_version,
                                         std::uint32_t max_version) {
  assert(magic.size() == kMagicSize);
  const File file{std::fopen(path.c_str(), "rb")};
  if (file.handle == nullptr) {
    throw SnapshotError("cannot open: " + path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  while (true) {
    const std::size_t got =
        std::fread(chunk, 1, sizeof(chunk), file.handle);
    bytes.insert(bytes.end(), chunk, chunk + got);
    if (got < sizeof(chunk)) break;
  }
  // Frame: magic(8) + version(4) + payload + checksum(8).
  if (bytes.size() < kMagicSize + 4 + 8) {
    throw SnapshotError("file too short to be a snapshot frame: " + path);
  }
  for (std::size_t i = 0; i < kMagicSize; ++i) {
    if (bytes[i] != static_cast<std::uint8_t>(magic[i])) {
      throw SnapshotError("bad magic (not a " + std::string(magic) +
                          " file): " + path);
    }
  }
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(bytes[kMagicSize +
                                                static_cast<std::size_t>(i)])
               << (8 * i);
  }
  if (version < min_version || version > max_version) {
    throw SnapshotError("unsupported format version " +
                        std::to_string(version) + ": " + path);
  }
  const std::size_t payload_begin = kMagicSize + 4;
  const std::size_t payload_size = bytes.size() - payload_begin - 8;
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(
                  bytes[payload_begin + payload_size +
                        static_cast<std::size_t>(i)])
              << (8 * i);
  }
  if (stored != fnv1a64(bytes.data() + payload_begin, payload_size)) {
    throw SnapshotError("checksum mismatch (corrupt file): " + path);
  }
  SnapshotReader reader{std::vector<std::uint8_t>(
      bytes.begin() + static_cast<std::ptrdiff_t>(payload_begin),
      bytes.begin() +
          static_cast<std::ptrdiff_t>(payload_begin + payload_size))};
  reader.version_ = version;
  return reader;
}

// ------------------------------------------------------------- NowState

void snapshot_save_state(const NowState& state, SnapshotWriter& w) {
  w.u64(state.next_node_id_);
  w.u64(state.next_cluster_id_);

  // Membership slab (format v2): the allocated tail is written explicitly —
  // it is NOT recomputable from the extents (the last-allocated extent may
  // have been released) and the compaction trigger reads it — then one
  // extent record + bulk member block per live slot. Gaps between extents
  // are dead bytes and are not serialized; load zero-fills them
  // (unobservable: no read ever leaves [first, first + size)).
  const cluster::MemberSlab& slab = *state.slab_;
  w.u64(state.slots_.size());
  w.u64(slab.tail());
  for (std::size_t slot = 0; slot < state.slots_.size(); ++slot) {
    if (!state.slots_[slot].has_value()) {
      w.u8(0);
      continue;
    }
    const cluster::MemberSlab::Extent& e = slab.extent(slot);
    w.u8(1);
    w.u64(state.slots_[slot]->id().value());
    w.u64(e.first);
    w.u64(e.cap);
    w.u64(e.size);
    write_node_ids(w, slab.members(slot));
  }
  w.u64(state.free_slots_.size());
  for (const std::uint32_t slot : state.free_slots_) w.u32(slot);
  w.u64(state.live_ids_.size());
  for (const ClusterId id : state.live_ids_) w.u64(id.value());

  w.u64(state.live_.size());
  for (const NodeId node : state.live_.items()) w.u64(node.value());
  w.u64(state.byzantine.size());
  for (const NodeId node : state.byzantine) w.u64(node.value());

  const graph::Graph& g = state.overlay_.graph();
  w.u64(g.vertex_order().size());
  for (const graph::Vertex v : g.vertex_order()) w.u64(v);
  for (const graph::Vertex v : g.vertex_order()) {
    const auto& neighbors = g.neighbors(v);
    w.u64(neighbors.size());
    for (const graph::Vertex n : neighbors) w.u64(n);
  }
}

void snapshot_load_state(NowState& state, SnapshotReader& r) {
  state.next_node_id_ = r.u64();
  state.next_cluster_id_ = r.u64();

  const std::uint64_t slot_count = r.count(1);
  state.slots_.clear();
  state.slots_.resize(slot_count);
  state.live_pos_.assign(slot_count, 0);
  state.byz_count_.assign(slot_count, 0);
  state.neighborhood_.assign(slot_count, 0);
  state.free_slots_.clear();
  state.live_ids_.clear();
  state.cluster_slot_.clear();
  state.node_home_.clear();
  state.placed_count_ = 0;
  state.live_.clear();
  state.clear_byzantine();
  state.sizes_ = FenwickTree{};
  state.sizes_.resize(slot_count);

  // Slab tail. Every live member contributes 8 payload bytes below, and at
  // rest the slab honors tail <= 2 * live + slack (maybe_compact runs at
  // every sequential mutation and at each batch boundary), so a corrupt or
  // hostile tail that would drive an allocation far beyond the actual
  // payload size is rejected before the pool is sized.
  const std::uint64_t slab_tail = r.u64();
  if (slab_tail >
      2 * (r.remaining() / 8) + cluster::MemberSlab::kCompactSlack) {
    throw SnapshotError("slab tail exceeds plausible payload");
  }
  // The slab stores pool positions as u32 (MemberSlab::Extent); the
  // plausibility bound above keeps any honest tail far below that, so a
  // larger value can only be corruption.
  if (slab_tail > std::numeric_limits<std::uint32_t>::max()) {
    throw SnapshotError("slab tail exceeds pool position range");
  }
  state.slab_->restore_reset(static_cast<std::size_t>(slot_count), slab_tail);

  std::vector<NodeId> members;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;  // first,cap
  for (std::uint64_t slot = 0; slot < slot_count; ++slot) {
    if (r.u8() == 0) continue;
    const ClusterId id{r.u64()};
    const std::uint64_t first = r.u64();
    const std::uint64_t cap = r.u64();
    const std::uint64_t size = r.count(8);
    if (size > cap || cap > slab_tail || first > slab_tail - cap) {
      throw SnapshotError("slab extent out of bounds");
    }
    members.resize(static_cast<std::size_t>(size));
    read_node_ids(r, members);
    for (std::size_t i = 1; i < members.size(); ++i) {
      if (!(members[i - 1] < members[i])) {
        throw SnapshotError("cluster member list not strictly sorted");
      }
    }
    state.slots_[slot].emplace(id, *state.slab_,
                               static_cast<std::size_t>(slot));
    state.slab_->restore_extent(static_cast<std::size_t>(slot), first, cap,
                                members);
    if (cap > 0) extents.emplace_back(first, cap);
    state.cluster_slot_.set(id.value(),
                            static_cast<std::uint32_t>(slot));
    for (const NodeId m : members) state.node_home_.set(m.value(), id);
    state.placed_count_ += members.size();
    state.sizes_.add(static_cast<std::size_t>(slot), size);
  }
  // Extents must be pairwise disjoint over their full [first, first + cap)
  // ranges — overlapping caps would let one slot's in-place edits corrupt
  // another's members after restore.
  std::sort(extents.begin(), extents.end());
  for (std::size_t i = 1; i < extents.size(); ++i) {
    if (extents[i - 1].first + extents[i - 1].second > extents[i].first) {
      throw SnapshotError("slab extents overlap");
    }
  }

  const std::uint64_t free_count = r.count(4);
  for (std::uint64_t i = 0; i < free_count; ++i) {
    const std::uint32_t slot = r.u32();
    if (slot >= slot_count || state.slots_[slot].has_value()) {
      throw SnapshotError("free-slot list names a live slot");
    }
    state.free_slots_.push_back(slot);
  }
  const std::uint64_t live_cluster_count = r.count(8);
  for (std::uint64_t i = 0; i < live_cluster_count; ++i) {
    const ClusterId id{r.u64()};
    if (!state.has_cluster(id)) {
      throw SnapshotError("live-cluster list names an unknown cluster");
    }
    state.live_pos_[state.slot_of(id)] =
        static_cast<std::uint32_t>(state.live_ids_.size());
    state.live_ids_.push_back(id);
  }
  if (state.live_ids_.size() + state.free_slots_.size() != slot_count) {
    throw SnapshotError("slot table does not partition into live + free");
  }

  const std::uint64_t live_node_count = r.count(8);
  for (std::uint64_t i = 0; i < live_node_count; ++i) {
    state.live_.insert(NodeId{r.u64()});
  }
  // Marking after the members are placed rebuilds every cluster's
  // Byzantine count from its members.
  const std::uint64_t byz_count = r.count(8);
  for (std::uint64_t i = 0; i < byz_count; ++i) {
    state.set_byzantine(NodeId{r.u64()}, true);
  }

  graph::Graph& g = state.overlay_.graph_for_restore();
  g.clear();
  const std::uint64_t vertex_count = r.count(8);
  std::vector<graph::Vertex> order;
  order.reserve(vertex_count);
  for (std::uint64_t i = 0; i < vertex_count; ++i) {
    const graph::Vertex v = r.u64();
    if (!state.has_cluster(ClusterId{v})) {
      throw SnapshotError("overlay vertex is not a live cluster");
    }
    order.push_back(v);
    g.add_vertex(v);
  }
  for (const graph::Vertex v : order) {
    const std::uint64_t degree = r.count(8);
    for (std::uint64_t i = 0; i < degree; ++i) {
      const graph::Vertex n = r.u64();
      if (!g.has_vertex(n)) {
        throw SnapshotError("overlay edge to an unknown vertex");
      }
      if (v < n) g.add_edge(v, n);
    }
  }
  // The populations are derived from the sizes and the adjacency.
  for (const ClusterId id : state.live_ids_) state.recount_neighborhood(id);
}

// ------------------------------------------------------------ NowSystem

void save_params(const NowParams& p, SnapshotWriter& w) {
  w.u64(p.max_size);
  w.f64(p.tau);
  w.i64(p.k);
  w.f64(p.l);
  w.f64(p.alpha);
  w.f64(p.over_degree_constant);
  w.f64(p.over_cap_factor);
  w.f64(p.walk_factor);
  w.u32(static_cast<std::uint32_t>(p.walk_mode));
  w.u32(static_cast<std::uint32_t>(p.merge_policy));
  w.u32(static_cast<std::uint32_t>(p.rand_num_mode));
  w.u32(static_cast<std::uint32_t>(p.robustness));
  w.u32(static_cast<std::uint32_t>(p.threshold_mode));
  w.u8(p.shuffle_enabled ? 1 : 0);
}

NowParams read_params(SnapshotReader& r) {
  NowParams p;
  p.max_size = r.u64();
  p.tau = r.f64();
  const std::int64_t k = r.i64();
  if (k < 1 || k > std::numeric_limits<int>::max()) {
    throw SnapshotError("params k " + std::to_string(k) +
                        " is not a positive int");
  }
  p.k = static_cast<int>(k);
  p.l = r.f64();
  p.alpha = r.f64();
  p.over_degree_constant = r.f64();
  p.over_cap_factor = r.f64();
  p.walk_factor = r.f64();
  // Reject what no recorder writes: it would replay as a divergence.
  const auto require = [](double value, bool in_range, const char* field) {
    if (!std::isfinite(value) || !in_range) {
      throw SnapshotError(std::string("params ") + field + " out of range");
    }
  };
  if (p.max_size < 2) throw SnapshotError("params max_size below 2");
  require(p.tau, p.tau >= 0.0 && p.tau < 1.0, "tau");
  require(p.l, p.l > 1.0, "l");
  require(p.alpha, p.alpha >= 0.0, "alpha");
  require(p.over_degree_constant, p.over_degree_constant > 0.0,
          "over_degree_constant");
  require(p.over_cap_factor, p.over_cap_factor > 0.0, "over_cap_factor");
  require(p.walk_factor, p.walk_factor > 0.0, "walk_factor");
  p.walk_mode = read_enum(r, WalkMode::kSampleExact, "walk_mode");
  p.merge_policy = read_enum(r, MergePolicy::kAbsorb, "merge_policy");
  p.rand_num_mode =
      read_enum(r, cluster::RandNumMode::kRobust, "rand_num_mode");
  p.robustness = read_enum(r, Robustness::kAuthenticated, "robustness");
  p.threshold_mode =
      read_enum(r, ThresholdMode::kDynamicCurrentN, "threshold_mode");
  p.shuffle_enabled = r.u8() != 0;
  return p;
}

void check_params(const NowParams& expected, SnapshotReader& r) {
  const NowParams got = read_params(r);
  const auto fail = [](const char* field) {
    throw SnapshotError(std::string("snapshot parameter mismatch: ") +
                        field);
  };
  if (got.max_size != expected.max_size) fail("max_size");
  if (got.tau != expected.tau) fail("tau");
  if (got.k != expected.k) fail("k");
  if (got.l != expected.l) fail("l");
  if (got.alpha != expected.alpha) fail("alpha");
  if (got.over_degree_constant != expected.over_degree_constant) {
    fail("over_degree_constant");
  }
  if (got.over_cap_factor != expected.over_cap_factor) {
    fail("over_cap_factor");
  }
  if (got.walk_factor != expected.walk_factor) fail("walk_factor");
  if (got.walk_mode != expected.walk_mode) fail("walk_mode");
  if (got.merge_policy != expected.merge_policy) fail("merge_policy");
  if (got.rand_num_mode != expected.rand_num_mode) fail("rand_num_mode");
  if (got.robustness != expected.robustness) fail("robustness");
  if (got.threshold_mode != expected.threshold_mode) {
    fail("threshold_mode");
  }
  if (got.shuffle_enabled != expected.shuffle_enabled) {
    fail("shuffle_enabled");
  }
}

void save_system(const NowSystem& system, SnapshotWriter& w) {
  w.u64(system.seed_);
  w.u8(system.initialized_ ? 1 : 0);
  w.u64(system.batch_counter_);
  for (const std::uint64_t word : system.rng_.state()) w.u64(word);
  save_params(system.params_, w);
  snapshot_save_state(system.state_, w);
}

void load_system(NowSystem& system, SnapshotReader& r) {
  if (system.initialized_) {
    throw SnapshotError(
        "snapshots load into a freshly constructed NowSystem only");
  }
  system.seed_ = r.u64();
  const bool initialized = r.u8() != 0;
  system.batch_counter_ = r.u64();
  std::array<std::uint64_t, 4> rng_state{};
  for (auto& word : rng_state) word = r.u64();
  system.rng_.restore_state(rng_state);
  check_params(system.params_, r);
  snapshot_load_state(system.state_, r);
  system.initialized_ = initialized;
}

}  // namespace now::core
