#include "sim/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

namespace now::sim {

namespace {

constexpr char kTraceMagic[] = "NOWTRAC1";
constexpr char kCheckpointMagic[] = "NOWCKPT1";

/// Trace frame tags (kFrameCheckpoint arrived in trace v2). The
/// footer is NOT a frame — it lives after the end frame and is located
/// via the trailing offset word, never by sequential scan.
enum Frame : std::uint8_t {
  kFrameStep = 1,
  kFrameJoin = 2,
  kFrameLeave = 3,
  kFrameBatch = 4,
  kFrameSample = 5,
  kFrameEnd = 6,
  kFrameCheckpoint = 7,
};

/// Footer magic ("IDX2" little-endian) — a cheap tripwire: a trailing
/// offset that lands anywhere but a real footer fails here instead of
/// misparsing entries.
constexpr std::uint32_t kFooterMagic = 0x32584449;

void write_sample(core::SnapshotWriter& w, const InvariantSample& s) {
  w.u64(s.step);
  w.u64(s.num_nodes);
  w.u64(s.num_clusters);
  w.u64(s.min_cluster_size);
  w.u64(s.max_cluster_size);
  w.f64(s.worst_byz_fraction);
  w.u64(s.compromised_clusters);
  w.u64(s.overlay_max_degree);
  w.u8(s.overlay_connected ? 1 : 0);
}

InvariantSample read_sample(core::SnapshotReader& r) {
  InvariantSample s;
  s.step = r.u64();
  s.num_nodes = r.u64();
  s.num_clusters = r.u64();
  s.min_cluster_size = r.u64();
  s.max_cluster_size = r.u64();
  s.worst_byz_fraction = r.f64();
  s.compromised_clusters = r.u64();
  s.overlay_max_degree = r.u64();
  s.overlay_connected = r.u8() != 0;
  return s;
}

// The summary layout has been frozen since trace v1 — the behavior counters
// on ScenarioResult are deliberately NOT serialized here.
void write_summary(core::SnapshotWriter& w, const ScenarioResult& result) {
  w.f64(result.peak_byz_fraction);
  w.u8(result.ever_compromised ? 1 : 0);
  w.u64(result.first_compromise_step);
  w.u64(result.total_splits);
  w.u64(result.total_merges);
  w.u64(result.final_nodes);
  w.u64(result.final_clusters);
  w.u64(result.final_byzantine);
  w.u64(result.total_forced_leaves);
  w.u64(result.max_step_forced_leaves);
}

ScenarioResult read_summary(core::SnapshotReader& r) {
  ScenarioResult result;
  result.peak_byz_fraction = r.f64();
  result.ever_compromised = r.u8() != 0;
  result.first_compromise_step = r.u64();
  result.total_splits = r.u64();
  result.total_merges = r.u64();
  result.final_nodes = r.u64();
  result.final_clusters = r.u64();
  result.final_byzantine = r.u64();
  result.total_forced_leaves = r.u64();
  result.max_step_forced_leaves = r.u64();
  return result;
}

struct TraceHeader {
  core::NowParams params;
  std::uint64_t seed = 0;
  std::uint64_t steps = 0;
  std::uint64_t sample_every = 0;
  std::uint64_t n0 = 0;
  std::uint64_t byz0 = 0;
  core::InitTopology topology = core::InitTopology::kSparseRandom;
  std::uint64_t batch_ops = 0;
  std::uint64_t shards = 1;
  double batch_byz_fraction = 0.0;
  BatchPlacement placement = BatchPlacement::kUniform;
  std::uint64_t leave_quota = 0;
  std::string adversary;
};

void write_header(core::SnapshotWriter& w, const TraceHeader& h) {
  core::save_params(h.params, w);
  w.u64(h.seed);
  w.u64(h.steps);
  w.u64(h.sample_every);
  w.u64(h.n0);
  w.u64(h.byz0);
  w.u32(static_cast<std::uint32_t>(h.topology));
  w.u64(h.batch_ops);
  w.u64(h.shards);
  w.f64(h.batch_byz_fraction);
  w.u32(static_cast<std::uint32_t>(h.placement));
  w.u64(h.leave_quota);
  w.str(h.adversary);
}

TraceHeader read_header(core::SnapshotReader& r) {
  TraceHeader h;
  h.params = core::read_params(r);
  h.seed = r.u64();
  h.steps = r.u64();
  h.sample_every = r.u64();
  h.n0 = r.u64();
  h.byz0 = r.u64();
  h.topology = static_cast<core::InitTopology>(r.u32());
  h.batch_ops = r.u64();
  h.shards = r.u64();
  h.batch_byz_fraction = r.f64();
  h.placement = static_cast<BatchPlacement>(r.u32());
  h.leave_quota = r.u64();
  h.adversary = r.str();
  return h;
}

/// Opens a framed trace; every version but the current one is rejected.
core::SnapshotReader open_trace(const std::string& path) {
  return core::SnapshotReader::read_file(path, kTraceMagic,
                                         kTraceFormatVersion,
                                         kTraceFormatVersion);
}

struct TraceFooter {
  std::vector<TraceCheckpointInfo> checkpoints;
  /// Payload byte offset of the footer itself — the event stream's end.
  std::uint64_t offset = 0;
};

/// Locates and validates the footer via the trailing offset word. Leaves
/// the reader positioned right before that word; callers seek back.
TraceFooter read_footer(core::SnapshotReader& r) {
  if (r.size() < 8) {
    throw core::SnapshotError("trace too short for a footer offset");
  }
  r.seek(r.size() - 8);
  TraceFooter footer;
  footer.offset = r.u64();
  if (footer.offset > r.size() - 8) {
    throw core::SnapshotError("trace footer offset past end of payload");
  }
  r.seek(footer.offset);
  if (r.u32() != kFooterMagic) {
    throw core::SnapshotError("trace footer magic mismatch (truncated or "
                              "overwritten footer)");
  }
  const std::uint64_t count = r.count(16);
  footer.checkpoints.reserve(count);
  std::uint64_t prev_step = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceCheckpointInfo info;
    info.step = r.u64();
    info.offset = r.u64();
    if (info.offset >= footer.offset) {
      throw core::SnapshotError(
          "trace checkpoint offset points past the event stream");
    }
    if (i > 0 && info.step <= prev_step) {
      throw core::SnapshotError("trace footer steps not increasing");
    }
    prev_step = info.step;
    footer.checkpoints.push_back(info);
  }
  if (r.pos() != r.size() - 8) {
    throw core::SnapshotError("trace footer size mismatch");
  }
  return footer;
}

}  // namespace

// ------------------------------------------------------------- recorder

TraceRecorder::TraceRecorder(const ScenarioConfig& config, std::size_t n0,
                             std::size_t byz0, std::string adversary_name) {
  TraceHeader h;
  h.params = config.params;
  h.seed = config.seed;
  h.steps = config.steps;
  h.sample_every = config.sample_every;
  h.n0 = n0;
  h.byz0 = byz0;
  h.topology = config.topology;
  h.batch_ops = config.batch_ops;
  h.shards = config.shards;
  h.batch_byz_fraction = config.batch_byz_fraction;
  h.placement = config.batch_placement;
  h.leave_quota = config.batch_leave_quota;
  h.adversary = std::move(adversary_name);
  write_header(writer_, h);
}

void TraceRecorder::on_join(NodeId node, bool byzantine) {
  writer_.u8(kFrameJoin);
  writer_.u64(node.value());
  writer_.u8(byzantine ? 1 : 0);
}

void TraceRecorder::on_leave(NodeId node) {
  writer_.u8(kFrameLeave);
  writer_.u64(node.value());
}

void TraceRecorder::on_batch(std::size_t joins, std::size_t byzantine_joins,
                             const std::vector<NodeId>& leaves,
                             std::size_t shards) {
  writer_.u8(kFrameBatch);
  writer_.u64(joins);
  writer_.u64(byzantine_joins);
  writer_.u64(shards);
  writer_.u64(leaves.size());
  for (const NodeId node : leaves) writer_.u64(node.value());
}

void TraceRecorder::begin_step(std::size_t t) {
  writer_.u8(kFrameStep);
  writer_.u64(t);
}

void TraceRecorder::record_sample(const InvariantSample& sample) {
  writer_.u8(kFrameSample);
  write_sample(writer_, sample);
}

void TraceRecorder::record_checkpoint(std::size_t step,
                                      const core::NowSystem& system,
                                      std::size_t splits_so_far,
                                      std::size_t merges_so_far,
                                      const ScenarioResult& partial) {
  core::SnapshotWriter snap;
  core::save_system(system, snap);
  checkpoints_.emplace_back(step, writer_.buffer().size());
  writer_.u8(kFrameCheckpoint);
  writer_.u64(step);
  writer_.u64(splits_so_far);
  writer_.u64(merges_so_far);
  writer_.f64(partial.peak_byz_fraction);
  writer_.u8(partial.ever_compromised ? 1 : 0);
  writer_.u64(partial.first_compromise_step);
  writer_.u64(snap.buffer().size());
  writer_.bytes(snap.buffer().data(), snap.buffer().size());
}

void TraceRecorder::finish(const ScenarioResult& result,
                           const std::string& path) {
  writer_.u8(kFrameEnd);
  write_summary(writer_, result);
  const std::uint64_t footer_offset = writer_.buffer().size();
  writer_.u32(kFooterMagic);
  writer_.u64(checkpoints_.size());
  for (const auto& [step, offset] : checkpoints_) {
    writer_.u64(step);
    writer_.u64(offset);
  }
  writer_.u64(footer_offset);
  writer_.write_file(path, kTraceMagic, kTraceFormatVersion);
}

// ------------------------------------------------------------- replayer

TraceReplayResult replay_trace(const std::string& path,
                               const ReplayOptions& opts) {
  core::SnapshotReader reader = open_trace(path);
  const TraceHeader header = read_header(reader);
  const std::uint64_t header_end = reader.pos();
  const TraceFooter footer = read_footer(reader);
  const std::uint64_t body_end = footer.offset;
  const std::vector<TraceCheckpointInfo>& index = footer.checkpoints;
  reader.seek(header_end);

  TraceReplayResult replay;
  Metrics metrics;
  core::NowSystem system{header.params, metrics, header.seed};

  // Split/merge counts before the seek point (embedded in the restored
  // checkpoint) — the replayed tail only adds to them.
  std::size_t splits_base = 0;
  std::size_t merges_base = 0;
  std::size_t current_step = 0;

  if (opts.start_checkpoint == kReplayFromStart) {
    system.initialize(header.n0, header.byz0, header.topology);
  } else {
    if (opts.start_checkpoint >= index.size()) {
      throw core::SnapshotError(
          "trace has no checkpoint #" +
          std::to_string(opts.start_checkpoint) + ": " + path);
    }
    const TraceCheckpointInfo& ck = index[opts.start_checkpoint];
    reader.seek(ck.offset);
    if (reader.u8() != kFrameCheckpoint) {
      throw core::SnapshotError(
          "trace footer entry does not point at a checkpoint frame: " +
          path);
    }
    const std::uint64_t step = reader.u64();
    if (step != ck.step) {
      throw core::SnapshotError("trace footer step disagrees with the "
                                "checkpoint frame: " + path);
    }
    splits_base = reader.u64();
    merges_base = reader.u64();
    replay.result.peak_byz_fraction = reader.f64();
    replay.result.ever_compromised = reader.u8() != 0;
    replay.result.first_compromise_step = reader.u64();
    const std::uint64_t snap_size = reader.count(1);
    const std::uint64_t snap_end = reader.pos() + snap_size;
    core::load_system(system, reader);
    if (reader.pos() != snap_end) {
      throw core::SnapshotError(
          "embedded checkpoint snapshot size mismatch: " + path);
    }
    current_step = step;
    replay.start_step = step;
  }

  const auto mismatch = [&](const std::string& what) {
    if (replay.ok) {
      replay.ok = false;
      replay.error = "step " + std::to_string(current_step) + ": " + what;
      replay.first_bad_step = current_step;
    }
  };
  const auto note_sample = [&](const InvariantSample& s) {
    replay.result.samples.push_back(s);
    replay.result.peak_byz_fraction =
        std::max(replay.result.peak_byz_fraction, s.worst_byz_fraction);
    if (s.compromised_clusters > 0 && !replay.result.ever_compromised) {
      replay.result.ever_compromised = true;
      replay.result.first_compromise_step = s.step;
    }
  };

  std::vector<NodeId> leaves;
  bool saw_end = false;
  while (reader.pos() < body_end && replay.ok && !saw_end) {
    switch (reader.u8()) {
      case kFrameStep:
        current_step = reader.u64();
        ++replay.steps_replayed;
        break;
      case kFrameJoin: {
        const NodeId recorded{reader.u64()};
        const bool byzantine = reader.u8() != 0;
        const auto [node, report] = system.join(byzantine);
        (void)report;
        if (node != recorded) {
          mismatch("join produced node " +
                   std::to_string(node.value()) + ", trace recorded " +
                   std::to_string(recorded.value()));
        }
        break;
      }
      case kFrameLeave: {
        const NodeId node{reader.u64()};
        if (!system.state().is_placed(node)) {
          mismatch("leave victim " + std::to_string(node.value()) +
                   " is not placed");
          break;
        }
        system.leave(node);
        break;
      }
      case kFrameBatch: {
        const std::size_t joins = reader.u64();
        const std::size_t byz_joins = reader.u64();
        const std::size_t shards = reader.u64();
        const std::uint64_t count = reader.count(8);
        leaves.clear();
        leaves.reserve(count);
        bool placed = true;
        for (std::uint64_t i = 0; i < count; ++i) {
          leaves.push_back(NodeId{reader.u64()});
          placed = placed && system.state().is_placed(leaves.back());
        }
        if (!placed) {
          mismatch("batch names an unplaced leave victim");
          break;
        }
        if (byz_joins > joins) {
          mismatch("batch records more byzantine joins than joins");
          break;
        }
        const std::size_t use_shards =
            opts.shards_override > 0 ? opts.shards_override : shards;
        system.step_parallel_mixed(joins, byz_joins, leaves, use_shards);
        break;
      }
      case kFrameSample: {
        const InvariantSample recorded = read_sample(reader);
        const auto report = system.check();
        InvariantSample live;
        live.step = recorded.step;
        live.num_nodes = report.num_nodes;
        live.num_clusters = report.num_clusters;
        live.min_cluster_size = report.min_cluster_size;
        live.max_cluster_size = report.max_cluster_size;
        live.worst_byz_fraction = report.worst_byz_fraction;
        live.compromised_clusters = report.compromised_clusters;
        live.overlay_max_degree = report.overlay_max_degree;
        live.overlay_connected = report.overlay_connected;
        if (!(live == recorded)) {
          std::ostringstream os;
          os << "invariant sample diverged at recorded step "
             << recorded.step << " (nodes " << recorded.num_nodes << " vs "
             << live.num_nodes << ", clusters " << recorded.num_clusters
             << " vs " << live.num_clusters << ", worst p_C "
             << recorded.worst_byz_fraction << " vs "
             << live.worst_byz_fraction << ")";
          mismatch(os.str());
          break;
        }
        note_sample(live);
        ++replay.samples_checked;
        break;
      }
      case kFrameCheckpoint: {
        current_step = reader.u64();
        const std::uint64_t ck_splits = reader.u64();
        const std::uint64_t ck_merges = reader.u64();
        const double ck_peak = reader.f64();
        const bool ck_ever = reader.u8() != 0;
        const std::uint64_t ck_first = reader.u64();
        const std::uint64_t snap_size = reader.count(1);
        std::vector<std::uint8_t> embedded(snap_size);
        reader.bytes(embedded.data(), embedded.size());
        // Every checkpoint is an observation point: serialize the live
        // state through the same writer and compare byte-for-byte. The
        // snapshot payload is canonical (slab geometry, dense-set orders,
        // RNG words), so equality here IS state identity.
        core::SnapshotWriter live;
        core::save_system(system, live);
        if (live.buffer() != embedded) {
          mismatch(
              "live state diverged from the embedded checkpoint snapshot");
          break;
        }
        if (splits_base + metrics.operation_count(metrics.find("split")) != ck_splits ||
            merges_base + metrics.operation_count(metrics.find("merge")) != ck_merges ||
            replay.result.peak_byz_fraction != ck_peak ||
            replay.result.ever_compromised != ck_ever ||
            replay.result.first_compromise_step != ck_first) {
          mismatch("replay aggregates diverged from the embedded "
                   "checkpoint");
          break;
        }
        ++replay.checkpoints_checked;
        break;
      }
      case kFrameEnd: {
        const ScenarioResult recorded = read_summary(reader);
        saw_end = true;
        replay.result.total_splits =
            splits_base + metrics.operation_count(metrics.find("split"));
        replay.result.total_merges =
            merges_base + metrics.operation_count(metrics.find("merge"));
        replay.result.final_nodes = system.num_nodes();
        replay.result.final_clusters = system.num_clusters();
        replay.result.final_byzantine = system.state().byzantine_total();
        replay.result.total_forced_leaves = recorded.total_forced_leaves;
        replay.result.max_step_forced_leaves =
            recorded.max_step_forced_leaves;
        if (replay.result.final_nodes != recorded.final_nodes ||
            replay.result.final_clusters != recorded.final_clusters ||
            replay.result.final_byzantine != recorded.final_byzantine ||
            replay.result.total_splits != recorded.total_splits ||
            replay.result.total_merges != recorded.total_merges ||
            replay.result.peak_byz_fraction !=
                recorded.peak_byz_fraction ||
            replay.result.ever_compromised != recorded.ever_compromised) {
          mismatch("end-of-run summary diverged from the recorded one");
        }
        break;
      }
      default:
        throw core::SnapshotError("unknown trace frame tag: " + path);
    }
  }
  if (!saw_end && replay.ok) {
    mismatch("trace has no end-of-run summary frame");
  }
  if (saw_end && reader.pos() != body_end) {
    throw core::SnapshotError(
        "trailing bytes between end frame and footer: " + path);
  }
  return replay;
}

std::vector<TraceCheckpointInfo> trace_checkpoints(const std::string& path) {
  core::SnapshotReader reader = open_trace(path);
  return read_footer(reader).checkpoints;
}

TraceInfo trace_info(const std::string& path) {
  core::SnapshotReader reader = open_trace(path);
  const TraceHeader h = read_header(reader);
  TraceInfo info;
  info.version = reader.version();
  info.seed = h.seed;
  info.steps = h.steps;
  info.sample_every = h.sample_every;
  info.n0 = h.n0;
  info.byz0 = h.byz0;
  info.batch_ops = h.batch_ops;
  info.shards = h.shards;
  info.tau = h.params.tau;
  info.adversary = h.adversary;
  info.checkpoint_count = read_footer(reader).checkpoints.size();
  return info;
}

// -------------------------------------------------------------- bisect

TraceBisectResult bisect_trace(const std::string& path) {
  TraceBisectResult out;
  const std::vector<TraceCheckpointInfo> index = trace_checkpoints(path);
  // Probe i: i == 0 replays from scratch (the anchor — no restore);
  // i >= 1 restores checkpoint i-1 and replays the suffix.
  const auto probe = [&](std::size_t i) {
    ReplayOptions opts;
    if (i > 0) {
      opts.start_checkpoint = i - 1;
      ++out.restores;
    }
    ++out.probes;
    return replay_trace(path, opts);
  };

  const TraceReplayResult anchor = probe(0);
  if (anchor.ok) return out;
  out.diverged = true;
  out.first_bad_step = anchor.first_bad_step;
  out.error = anchor.error;

  // Monotone predicate over start points: a clean probe byte-verifies the
  // embedded snapshots after its start, pinning that whole suffix to the
  // recorded trajectory — so clean-from-i implies clean-from-j for every
  // j > i, and binary search is sound. lo always fails, hi is clean (the
  // past-the-end sentinel: an empty suffix is vacuously clean).
  std::size_t lo = 0;
  std::size_t hi = index.size() + 1;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const TraceReplayResult r = probe(mid);
    if (r.ok) {
      hi = mid;
    } else {
      lo = mid;
      out.first_bad_step = r.first_bad_step;
      out.error = r.error;
    }
  }
  out.fork_lower_bound = lo == 0 ? 0 : index[lo - 1].step;
  return out;
}

// ------------------------------------------------------------ mutation

namespace {

std::uint64_t read_u64_at(const std::vector<std::uint8_t>& buf,
                          std::size_t off) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf[off + i]) << (8 * i);
  }
  return v;
}

void write_u64_at(std::vector<std::uint8_t>& buf, std::size_t off,
                  std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    buf[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

struct FrameRef {
  std::uint8_t tag = 0;
  std::uint64_t offset = 0;  // payload offset of the tag byte
  std::uint64_t step = 0;    // step the frame belongs to
};

/// Structural walk of the event stream (no system needed) — the mutation
/// machinery's frame index. `reader` must be positioned after the header.
std::vector<FrameRef> scan_frames(core::SnapshotReader& reader,
                                  std::uint64_t body_end) {
  std::vector<FrameRef> frames;
  std::uint64_t step = 0;
  bool saw_end = false;
  while (reader.pos() < body_end && !saw_end) {
    FrameRef ref;
    ref.offset = reader.pos();
    ref.tag = reader.u8();
    switch (ref.tag) {
      case kFrameStep:
        step = reader.u64();
        break;
      case kFrameJoin:
        reader.u64();
        reader.u8();
        break;
      case kFrameLeave:
        reader.u64();
        break;
      case kFrameBatch: {
        reader.u64();
        reader.u64();
        reader.u64();
        const std::uint64_t count = reader.count(8);
        reader.seek(reader.pos() + count * 8);
        break;
      }
      case kFrameSample:
        (void)read_sample(reader);
        break;
      case kFrameCheckpoint: {
        reader.u64();  // step
        reader.u64();  // splits
        reader.u64();  // merges
        reader.f64();  // peak
        reader.u8();   // ever_compromised
        reader.u64();  // first_compromise_step
        const std::uint64_t snap_size = reader.count(1);
        reader.seek(reader.pos() + snap_size);
        break;
      }
      case kFrameEnd:
        (void)read_summary(reader);
        saw_end = true;
        break;
      default:
        throw core::SnapshotError("unknown trace frame tag during scan");
    }
    ref.step = step;
    frames.push_back(ref);
  }
  return frames;
}

}  // namespace

TraceMutation mutate_trace(const std::string& path,
                           const std::string& out_path,
                           TraceMutationKind kind, std::uint64_t pick) {
  core::SnapshotReader reader = open_trace(path);
  std::vector<std::uint8_t> payload(reader.size());
  reader.bytes(payload.data(), payload.size());

  core::SnapshotReader scan{payload};
  (void)read_header(scan);
  const std::uint64_t body_end = read_u64_at(payload, payload.size() - 8);
  const std::vector<FrameRef> frames = scan_frames(scan, body_end);

  std::vector<FrameRef> candidates;
  for (const FrameRef& f : frames) {
    switch (kind) {
      case TraceMutationKind::kEventBit:
        if (f.tag == kFrameJoin) candidates.push_back(f);
        if (f.tag == kFrameBatch &&
            read_u64_at(payload, f.offset + 1) > 0) {  // joins > 0
          candidates.push_back(f);
        }
        break;
      case TraceMutationKind::kSampleField:
        if (f.tag == kFrameSample) candidates.push_back(f);
        break;
      case TraceMutationKind::kSummaryField:
        if (f.tag == kFrameEnd) candidates.push_back(f);
        break;
    }
  }
  TraceMutation mutation;
  if (candidates.empty()) return mutation;
  const FrameRef target = candidates[pick % candidates.size()];
  mutation.applied = true;
  mutation.step = target.step;

  std::ostringstream desc;
  switch (kind) {
    case TraceMutationKind::kEventBit: {
      if (target.tag == kFrameJoin) {
        // Flip the corruption bit (offset: tag + node id).
        payload[target.offset + 1 + 8] ^= 1;
        desc << "flipped join corruption bit at step " << target.step;
      } else {
        // Nudge byz_joins within [0, joins] (offsets: tag, joins,
        // byz_joins).
        const std::uint64_t joins = read_u64_at(payload, target.offset + 1);
        const std::size_t byz_off = target.offset + 1 + 8;
        const std::uint64_t byz = read_u64_at(payload, byz_off);
        write_u64_at(payload, byz_off, byz > 0 ? byz - 1 : byz + 1);
        desc << "changed batch byzantine joins " << byz << " -> "
             << (byz > 0 ? byz - 1 : byz + 1) << " (of " << joins
             << ") at step " << target.step;
      }
      break;
    }
    case TraceMutationKind::kSampleField: {
      // Bump num_nodes (offsets: tag, step, num_nodes).
      const std::size_t off = target.offset + 1 + 8;
      write_u64_at(payload, off, read_u64_at(payload, off) + 1);
      desc << "bumped sample num_nodes at step " << target.step;
      break;
    }
    case TraceMutationKind::kSummaryField: {
      // Bump final_nodes (offsets: tag, peak f64, ever u8,
      // first_compromise, splits, merges).
      const std::size_t off = target.offset + 1 + 8 + 1 + 8 + 8 + 8;
      write_u64_at(payload, off, read_u64_at(payload, off) + 1);
      desc << "bumped summary final_nodes (end frame at step "
           << target.step << ")";
      break;
    }
  }
  mutation.description = desc.str();

  core::SnapshotWriter w;
  w.bytes(payload.data(), payload.size());
  w.write_file(out_path, kTraceMagic, kTraceFormatVersion);
  return mutation;
}

std::string describe_trace(const std::string& path) {
  core::SnapshotReader reader = open_trace(path);
  const TraceHeader h = read_header(reader);
  std::ostringstream os;
  os << "v" << reader.version() << " seed=" << h.seed << " steps="
     << h.steps << " n0=" << h.n0 << " byz0=" << h.byz0
     << " tau=" << h.params.tau << " k=" << h.params.k
     << " adversary=" << h.adversary;
  if (h.batch_ops > 0) {
    os << " batch_ops=" << h.batch_ops << " shards=" << h.shards
       << " byz_fraction=" << h.batch_byz_fraction << " placement="
       << (h.placement == BatchPlacement::kTargeted ? "targeted"
                                                    : "uniform")
       << " leave_quota=" << h.leave_quota;
  }
  os << " checkpoints=" << read_footer(reader).checkpoints.size();
  if (!h.params.shuffle_enabled) os << " (no-shuffle)";
  return os.str();
}

// ----------------------------------------------------------- checkpoints

namespace {

/// The scenario fields a resumed run must agree on (steps may legally
/// differ — callers can extend the horizon).
void write_scenario_fingerprint(core::SnapshotWriter& w,
                                const ScenarioConfig& c) {
  core::save_params(c.params, w);
  w.u64(c.seed);
  w.u64(c.sample_every);
  w.u64(c.n0);
  w.f64(c.initial_byz_fraction);
  w.u32(static_cast<std::uint32_t>(c.topology));
  w.u64(c.batch_ops);
  w.f64(c.batch_byz_fraction);
  w.u32(static_cast<std::uint32_t>(c.batch_placement));
  w.u64(c.batch_leave_quota);
}

void check_scenario_fingerprint(core::SnapshotReader& r,
                                const ScenarioConfig& c) {
  core::check_params(c.params, r);
  const auto fail = [](const char* field) {
    throw core::SnapshotError(
        std::string("checkpoint scenario mismatch: ") + field);
  };
  if (r.u64() != c.seed) fail("seed");
  if (r.u64() != c.sample_every) fail("sample_every");
  if (r.u64() != c.n0) fail("n0");
  if (r.f64() != c.initial_byz_fraction) fail("initial_byz_fraction");
  if (r.u32() != static_cast<std::uint32_t>(c.topology)) fail("topology");
  if (r.u64() != c.batch_ops) fail("batch_ops");
  if (r.f64() != c.batch_byz_fraction) fail("batch_byz_fraction");
  if (r.u32() != static_cast<std::uint32_t>(c.batch_placement)) {
    fail("batch_placement");
  }
  if (r.u64() != c.batch_leave_quota) fail("batch_leave_quota");
}

}  // namespace

void save_scenario_checkpoint(const ScenarioConfig& config,
                              const adversary::Adversary& adversary,
                              const core::NowSystem& system,
                              const Rng& driver_rng,
                              const ScenarioResult& partial,
                              std::size_t step, std::size_t splits_so_far,
                              std::size_t merges_so_far,
                              const std::string& path) {
  core::SnapshotWriter w;
  write_scenario_fingerprint(w, config);
  w.u64(step);
  for (const std::uint64_t word : driver_rng.state()) w.u64(word);
  w.u64(partial.samples.size());
  for (const InvariantSample& s : partial.samples) write_sample(w, s);
  write_summary(w, partial);
  w.u64(splits_so_far);
  w.u64(merges_so_far);
  w.str(adversary.name());
  w.f64(adversary.tau());
  adversary.save_state(w);
  core::save_system(system, w);
  w.write_file(path, kCheckpointMagic, kCheckpointFormatVersion);
}

ScenarioResume load_scenario_checkpoint(const ScenarioConfig& config,
                                        adversary::Adversary& adversary,
                                        core::NowSystem& system,
                                        Rng& driver_rng,
                                        ScenarioResult& partial,
                                        const std::string& path) {
  core::SnapshotReader r = core::SnapshotReader::read_file(
      path, kCheckpointMagic, kCheckpointFormatVersion,
      kCheckpointFormatVersion);
  check_scenario_fingerprint(r, config);
  ScenarioResume resume;
  resume.step = r.u64();
  std::array<std::uint64_t, 4> rng_state{};
  for (auto& word : rng_state) word = r.u64();
  driver_rng.restore_state(rng_state);
  // One serialized sample is 8 u64/f64 words plus the connected flag.
  const std::uint64_t sample_count = r.count(65);
  partial.samples.clear();
  partial.samples.reserve(sample_count);
  for (std::uint64_t i = 0; i < sample_count; ++i) {
    partial.samples.push_back(read_sample(r));
  }
  const ScenarioResult summary = read_summary(r);
  partial.peak_byz_fraction = summary.peak_byz_fraction;
  partial.ever_compromised = summary.ever_compromised;
  partial.first_compromise_step = summary.first_compromise_step;
  partial.total_forced_leaves = summary.total_forced_leaves;
  partial.max_step_forced_leaves = summary.max_step_forced_leaves;
  resume.splits_so_far = r.u64();
  resume.merges_so_far = r.u64();
  const std::string adversary_name = r.str();
  if (adversary_name != adversary.name()) {
    throw core::SnapshotError("checkpoint adversary mismatch: saved '" +
                              adversary_name + "', resuming with '" +
                              adversary.name() + "'");
  }
  // The corruption budget is the one constructor argument every strategy
  // shares and the trajectory always depends on; the rest of the
  // construction (schedules, background-churn rates) must be reproduced
  // by the caller — bit-identical resumption is only guaranteed for an
  // identically constructed adversary.
  if (r.f64() != adversary.tau()) {
    throw core::SnapshotError(
        "checkpoint adversary mismatch: different tau");
  }
  adversary.load_state(r);
  core::load_system(system, r);
  if (!r.at_end()) {
    throw core::SnapshotError("trailing bytes after checkpoint payload: " +
                              path);
  }
  return resume;
}

}  // namespace now::sim
