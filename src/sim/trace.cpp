#include "sim/trace.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>
#include <variant>

namespace now::sim {

namespace {

constexpr char kTraceMagic[] = "NOWTRAC1";
constexpr char kCheckpointMagic[] = "NOWCKPT1";

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

/// Throws SnapshotError for a header no recorder writes: bad params or
/// enum values, or an initial deployment initialize() cannot build.
TraceHeader read_header(core::SnapshotReader& r) {
  TraceHeader h;
  h.params = core::read_params(r);
  h.seed = r.u64();
  h.steps = r.u64();
  h.sample_every = r.u64();
  h.n0 = r.u64();
  h.byz0 = r.u64();
  h.topology = core::read_enum(r, core::InitTopology::kModeledSparse,
                               "topology");
  h.batch_ops = r.u64();
  h.shards = r.u64();
  h.batch_byz_fraction = r.f64();
  h.placement =
      core::read_enum(r, BatchPlacement::kTargeted, "batch placement");
  h.leave_quota = r.u64();
  h.adversary = r.str();
  if (h.n0 < 2) {
    throw core::SnapshotError("trace header n0 " + std::to_string(h.n0) +
                              " is below 2");
  }
  if (h.byz0 >= h.n0) {
    throw core::SnapshotError("trace header byz0 " + std::to_string(h.byz0) +
                              " is not below n0 " + std::to_string(h.n0));
  }
  return h;
}

// ------------------------------------------------------------ frame codec
//
// One struct per frame kind, each with its tag and one write_fields/
// read_fields pair. Every reader and writer of the frame stream — the
// recorder, replay, the checkpoint listing, info and mutation — goes
// through write_frame/read_frame, so the layout lives here only.

struct StepFrame {
  static constexpr std::uint8_t kTag = 1;
  std::uint64_t step = 0;
};

struct JoinFrame {
  static constexpr std::uint8_t kTag = 2;
  NodeId node;
  bool byzantine = false;
};

struct LeaveFrame {
  static constexpr std::uint8_t kTag = 3;
  NodeId node;
};

/// One step_parallel_mixed call. The shard count is not recorded: the
/// header's `shards` is the run's, and results do not depend on it.
struct BatchFrame {
  static constexpr std::uint8_t kTag = 4;
  std::uint64_t joins = 0;
  std::uint64_t byzantine_joins = 0;
  std::vector<NodeId> leaves;
};

struct SampleFrame {
  static constexpr std::uint8_t kTag = 5;
  InvariantSample sample;
};

struct EndFrame {
  static constexpr std::uint8_t kTag = 6;
  ScenarioResult summary;
};

/// A full system snapshot plus the run's partial aggregates, so a replay
/// seeked here reproduces the end summary exactly.
struct CheckpointFrame {
  static constexpr std::uint8_t kTag = 7;
  std::uint64_t step = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  double peak_byz_fraction = 0.0;
  bool ever_compromised = false;
  std::uint64_t first_compromise_step = 0;
  /// The save_system payload, length-prefixed on disk. A view into the
  /// recorder's scratch or the read trace's payload: walking the frames
  /// skips snapshots without copying or parsing them.
  std::span<const std::uint8_t> snapshot;
};

using TraceFrame = std::variant<StepFrame, JoinFrame, LeaveFrame, BatchFrame,
                                SampleFrame, EndFrame, CheckpointFrame>;

void write_fields(core::SnapshotWriter& w, const StepFrame& f) {
  w.u64(f.step);
}
void read_fields(core::SnapshotReader& r, StepFrame& f) { f.step = r.u64(); }

void write_fields(core::SnapshotWriter& w, const JoinFrame& f) {
  w.u64(f.node.value());
  w.u8(f.byzantine ? 1 : 0);
}
void read_fields(core::SnapshotReader& r, JoinFrame& f) {
  f.node = NodeId{r.u64()};
  f.byzantine = r.u8() != 0;
}

void write_fields(core::SnapshotWriter& w, const LeaveFrame& f) {
  w.u64(f.node.value());
}
void read_fields(core::SnapshotReader& r, LeaveFrame& f) {
  f.node = NodeId{r.u64()};
}

void write_fields(core::SnapshotWriter& w, const BatchFrame& f) {
  w.u64(f.joins);
  w.u64(f.byzantine_joins);
  w.u64(f.leaves.size());
  for (const NodeId node : f.leaves) w.u64(node.value());
}
void read_fields(core::SnapshotReader& r, BatchFrame& f) {
  f.joins = r.u64();
  f.byzantine_joins = r.u64();
  const std::uint64_t count = r.count(8);
  f.leaves.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) f.leaves.push_back(NodeId{r.u64()});
}

void write_fields(core::SnapshotWriter& w, const SampleFrame& f) {
  write_sample(w, f.sample);
}
void read_fields(core::SnapshotReader& r, SampleFrame& f) {
  f.sample = read_sample(r);
}

void write_fields(core::SnapshotWriter& w, const EndFrame& f) {
  write_summary(w, f.summary);
}
void read_fields(core::SnapshotReader& r, EndFrame& f) {
  f.summary = read_summary(r);
}

void write_fields(core::SnapshotWriter& w, const CheckpointFrame& f) {
  w.u64(f.step);
  w.u64(f.splits);
  w.u64(f.merges);
  w.f64(f.peak_byz_fraction);
  w.u8(f.ever_compromised ? 1 : 0);
  w.u64(f.first_compromise_step);
  w.u64(f.snapshot.size());
  w.bytes(f.snapshot.data(), f.snapshot.size());
}
void read_fields(core::SnapshotReader& r, CheckpointFrame& f) {
  f.step = r.u64();
  f.splits = r.u64();
  f.merges = r.u64();
  f.peak_byz_fraction = r.f64();
  f.ever_compromised = r.u8() != 0;
  f.first_compromise_step = r.u64();
  f.snapshot = r.view(r.count(1));
}

template <typename Frame>
void write_frame(core::SnapshotWriter& w, const Frame& frame) {
  w.u8(Frame::kTag);
  write_fields(w, frame);
}

template <typename Frame>
TraceFrame read_as(core::SnapshotReader& r) {
  Frame frame;
  read_fields(r, frame);
  return frame;
}

TraceFrame read_frame(core::SnapshotReader& r) {
  switch (r.u8()) {
    case StepFrame::kTag: return read_as<StepFrame>(r);
    case JoinFrame::kTag: return read_as<JoinFrame>(r);
    case LeaveFrame::kTag: return read_as<LeaveFrame>(r);
    case BatchFrame::kTag: return read_as<BatchFrame>(r);
    case SampleFrame::kTag: return read_as<SampleFrame>(r);
    case EndFrame::kTag: return read_as<EndFrame>(r);
    case CheckpointFrame::kTag: return read_as<CheckpointFrame>(r);
    default: throw core::SnapshotError("unknown trace frame tag");
  }
}

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

struct DecodedFrame {
  TraceFrame frame;
  /// Step the frame belongs to: the last step or checkpoint frame's.
  std::size_t step = 0;
};

/// A whole trace, decoded. Checkpoint snapshots are views into `reader`'s
/// payload, so the struct must outlive them (moving it keeps them valid).
struct DecodedTrace {
  core::SnapshotReader reader;
  TraceHeader header;
  std::vector<DecodedFrame> frames;
};

/// Opens and decodes a trace, enforcing the rules every reader shares:
/// the current version only, a valid header, known frame tags, batch frames
/// with at most the header's batch_ops joins and distinct leave victims,
/// strictly increasing checkpoint steps, and nothing after the end frame.
/// Violations throw SnapshotError; behavior is never checked here.
DecodedTrace decode_trace(const std::string& path) {
  DecodedTrace trace{core::SnapshotReader::read_file(
                         path, kTraceMagic, kTraceFormatVersion,
                         kTraceFormatVersion),
                     {}, {}};
  core::SnapshotReader& r = trace.reader;
  const auto fail = [&](const std::string& what) {
    throw core::SnapshotError(what + ": " + path);
  };
  trace.header = read_header(r);
  std::size_t step = 0;
  bool have_checkpoint = false;
  std::size_t checkpoint_step = 0;
  std::vector<NodeId> sorted_leaves;
  while (!r.at_end()) {
    TraceFrame frame = read_frame(r);
    if (const auto* f = std::get_if<StepFrame>(&frame)) step = f->step;
    if (const auto* f = std::get_if<BatchFrame>(&frame)) {
      // Only run_scenario writes batch frames: at most batch_ops joins and
      // distinct leave victims. The engine must never see anything else.
      if (f->joins > trace.header.batch_ops) {
        fail("batch frame records " + std::to_string(f->joins) +
             " joins, more than the header's batch_ops " +
             std::to_string(trace.header.batch_ops));
      }
      sorted_leaves.assign(f->leaves.begin(), f->leaves.end());
      std::sort(sorted_leaves.begin(), sorted_leaves.end());
      const auto twice =
          std::adjacent_find(sorted_leaves.begin(), sorted_leaves.end());
      if (twice != sorted_leaves.end()) {
        fail("batch frame names leave victim " +
             std::to_string(twice->value()) + " twice");
      }
    }
    if (const auto* f = std::get_if<CheckpointFrame>(&frame)) {
      if (have_checkpoint && f->step <= checkpoint_step) {
        fail("trace checkpoint steps not increasing (" +
             std::to_string(checkpoint_step) + " then " +
             std::to_string(f->step) + ")");
      }
      have_checkpoint = true;
      checkpoint_step = f->step;
      step = f->step;
    }
    const bool end = std::holds_alternative<EndFrame>(frame);
    trace.frames.push_back({std::move(frame), step});
    if (end && !r.at_end()) fail("trailing bytes after the end frame");
  }
  return trace;
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
  write_frame(writer_, JoinFrame{.node = node, .byzantine = byzantine});
}

void TraceRecorder::on_leave(NodeId node) {
  write_frame(writer_, LeaveFrame{.node = node});
}

void TraceRecorder::on_batch(std::size_t joins, std::size_t byzantine_joins,
                             const std::vector<NodeId>& leaves) {
  write_frame(writer_, BatchFrame{.joins = joins,
                                  .byzantine_joins = byzantine_joins,
                                  .leaves = leaves});
}

void TraceRecorder::begin_step(std::size_t t) {
  write_frame(writer_, StepFrame{.step = t});
}

void TraceRecorder::record_sample(const InvariantSample& sample) {
  write_frame(writer_, SampleFrame{.sample = sample});
}

void TraceRecorder::record_checkpoint(std::size_t step,
                                      const core::NowSystem& system,
                                      std::size_t splits_so_far,
                                      std::size_t merges_so_far,
                                      const ScenarioResult& partial) {
  core::SnapshotWriter snap;
  core::save_system(system, snap);
  write_frame(writer_,
              CheckpointFrame{
                  .step = step,
                  .splits = splits_so_far,
                  .merges = merges_so_far,
                  .peak_byz_fraction = partial.peak_byz_fraction,
                  .ever_compromised = partial.ever_compromised,
                  .first_compromise_step = partial.first_compromise_step,
                  .snapshot = snap.buffer()});
}

void TraceRecorder::finish(const ScenarioResult& result,
                           const std::string& path) {
  write_frame(writer_, EndFrame{.summary = result});
  writer_.write_file(path, kTraceMagic, kTraceFormatVersion);
}

// ------------------------------------------------------------- replayer

TraceReplayResult replay_trace(const std::string& path,
                               const ReplayOptions& opts) {
  const DecodedTrace trace = decode_trace(path);
  const TraceHeader& header = trace.header;
  const std::vector<DecodedFrame>& frames = trace.frames;

  TraceReplayResult replay;
  Metrics metrics;
  core::NowSystem system{header.params, metrics, header.seed};

  // Split/merge counts before the seek point (embedded in the restored
  // checkpoint) — the replayed tail only adds to them.
  std::size_t splits_base = 0;
  std::size_t merges_base = 0;
  std::size_t current_step = 0;
  std::size_t next = 0;  // first frame to re-drive

  if (opts.start_checkpoint == kReplayFromStart) {
    system.initialize(header.n0, header.byz0, header.topology);
  } else {
    // Checkpoints are found by walking the frames: stop at the
    // start_checkpoint-th one.
    std::size_t seen = 0;
    while (next < frames.size() &&
           !(std::holds_alternative<CheckpointFrame>(frames[next].frame) &&
             seen++ == opts.start_checkpoint)) {
      ++next;
    }
    if (next == frames.size()) {
      throw core::SnapshotError(
          "trace has no checkpoint #" +
          std::to_string(opts.start_checkpoint) + ": " + path);
    }
    const auto& ck = std::get<CheckpointFrame>(frames[next++].frame);
    splits_base = ck.splits;
    merges_base = ck.merges;
    replay.result.peak_byz_fraction = ck.peak_byz_fraction;
    replay.result.ever_compromised = ck.ever_compromised;
    replay.result.first_compromise_step = ck.first_compromise_step;
    core::SnapshotReader snapshot{
        std::vector<std::uint8_t>(ck.snapshot.begin(), ck.snapshot.end())};
    core::load_system(system, snapshot);
    if (!snapshot.at_end()) {
      throw core::SnapshotError(
          "embedded checkpoint snapshot size mismatch: " + path);
    }
    current_step = ck.step;
    replay.start_step = ck.step;
  }

  const auto mismatch = [&](const std::string& what) {
    if (replay.ok) {
      replay.ok = false;
      replay.error = "step " + std::to_string(current_step) + ": " + what;
      replay.first_bad_step = current_step;
    }
  };
  const auto splits = [&] {
    return splits_base + metrics.operation_count(metrics.find("split"));
  };
  const auto merges = [&] {
    return merges_base + metrics.operation_count(metrics.find("merge"));
  };
  const std::size_t shards =
      opts.shards_override > 0 ? opts.shards_override : header.shards;

  bool saw_end = false;
  const auto visitor = Overloaded{
      [&](const StepFrame& f) {
        current_step = f.step;
        ++replay.steps_replayed;
      },
      [&](const JoinFrame& f) {
        const NodeId node = system.join(f.byzantine).first;
        if (node != f.node) {
          mismatch("join produced node " + std::to_string(node.value()) +
                   ", trace recorded " + std::to_string(f.node.value()));
        }
      },
      [&](const LeaveFrame& f) {
        if (!system.state().is_placed(f.node)) {
          mismatch("leave victim " + std::to_string(f.node.value()) +
                   " is not placed");
          return;
        }
        system.leave(f.node);
      },
      [&](const BatchFrame& f) {
        for (const NodeId node : f.leaves) {
          if (!system.state().is_placed(node)) {
            mismatch("batch names an unplaced leave victim");
            return;
          }
        }
        if (f.byzantine_joins > f.joins) {
          mismatch("batch records more byzantine joins than joins");
          return;
        }
        system.step_parallel_mixed(f.joins, f.byzantine_joins, f.leaves,
                                   shards);
      },
      [&](const SampleFrame& f) {
        const InvariantSample& recorded = f.sample;
        const InvariantSample live = make_sample(recorded.step,
                                                 system.check());
        if (!(live == recorded)) {
          std::ostringstream os;
          os << "invariant sample diverged at recorded step "
             << recorded.step << " (nodes " << recorded.num_nodes << " vs "
             << live.num_nodes << ", clusters " << recorded.num_clusters
             << " vs " << live.num_clusters << ", worst p_C "
             << recorded.worst_byz_fraction << " vs "
             << live.worst_byz_fraction << ")";
          mismatch(os.str());
          return;
        }
        fold_sample(replay.result, live);
        ++replay.samples_checked;
      },
      [&](const CheckpointFrame& f) {
        current_step = f.step;
        // Every checkpoint is an observation point: serialize the live
        // state through the same writer and compare byte-for-byte. The
        // snapshot payload is canonical (slab geometry, dense-set orders,
        // RNG words), so equality here IS state identity.
        core::SnapshotWriter live;
        core::save_system(system, live);
        if (!std::ranges::equal(live.buffer(), f.snapshot)) {
          mismatch(
              "live state diverged from the embedded checkpoint snapshot");
          return;
        }
        if (splits() != f.splits || merges() != f.merges ||
            replay.result.peak_byz_fraction != f.peak_byz_fraction ||
            replay.result.ever_compromised != f.ever_compromised ||
            replay.result.first_compromise_step !=
                f.first_compromise_step) {
          mismatch("replay aggregates diverged from the embedded "
                   "checkpoint");
          return;
        }
        ++replay.checkpoints_checked;
      },
      [&](const EndFrame& f) {
        const ScenarioResult& recorded = f.summary;
        saw_end = true;
        replay.result.total_splits = splits();
        replay.result.total_merges = merges();
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
      }};
  for (; next < frames.size() && replay.ok; ++next) {
    std::visit(visitor, frames[next].frame);
  }
  if (!saw_end && replay.ok) {
    mismatch("trace has no end-of-run summary frame");
  }
  return replay;
}

std::vector<TraceCheckpointInfo> trace_checkpoints(const std::string& path) {
  std::vector<TraceCheckpointInfo> checkpoints;
  for (const DecodedFrame& f : decode_trace(path).frames) {
    if (std::holds_alternative<CheckpointFrame>(f.frame)) {
      checkpoints.push_back({.step = f.step});
    }
  }
  return checkpoints;
}

TraceInfo trace_info(const std::string& path) {
  const DecodedTrace trace = decode_trace(path);
  const TraceHeader& h = trace.header;
  TraceInfo info;
  info.version = trace.reader.version();
  info.params = h.params;
  info.seed = h.seed;
  info.steps = h.steps;
  info.sample_every = h.sample_every;
  info.n0 = h.n0;
  info.byz0 = h.byz0;
  info.batch_ops = h.batch_ops;
  info.shards = h.shards;
  info.batch_byz_fraction = h.batch_byz_fraction;
  info.placement = h.placement;
  info.leave_quota = h.leave_quota;
  info.adversary = h.adversary;
  info.checkpoint_count = static_cast<std::size_t>(
      std::ranges::count_if(trace.frames, [](const DecodedFrame& f) {
        return std::holds_alternative<CheckpointFrame>(f.frame);
      }));
  return info;
}

std::string describe_trace(const std::string& path) {
  const TraceInfo info = trace_info(path);
  std::ostringstream os;
  os << "v" << info.version << " seed=" << info.seed << " steps="
     << info.steps << " n0=" << info.n0 << " byz0=" << info.byz0
     << " tau=" << info.params.tau << " k=" << info.params.k
     << " adversary=" << info.adversary;
  if (info.batch_ops > 0) {
    os << " batch_ops=" << info.batch_ops << " shards=" << info.shards
       << " byz_fraction=" << info.batch_byz_fraction << " placement="
       << (info.placement == BatchPlacement::kTargeted ? "targeted"
                                                       : "uniform")
       << " leave_quota=" << info.leave_quota;
  }
  os << " checkpoints=" << info.checkpoint_count;
  if (!info.params.shuffle_enabled) os << " (no-shuffle)";
  return os.str();
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

TraceMutation mutate_trace(const std::string& path,
                           const std::string& out_path,
                           TraceMutationKind kind, std::uint64_t pick) {
  DecodedTrace trace = decode_trace(path);
  const auto eligible = [kind](const TraceFrame& frame) {
    switch (kind) {
      case TraceMutationKind::kEventBit: {
        const auto* batch = std::get_if<BatchFrame>(&frame);
        return std::holds_alternative<JoinFrame>(frame) ||
               (batch != nullptr && batch->joins > 0);
      }
      case TraceMutationKind::kSampleField:
        return std::holds_alternative<SampleFrame>(frame);
      case TraceMutationKind::kSummaryField:
        return std::holds_alternative<EndFrame>(frame);
    }
    return false;
  };
  std::vector<DecodedFrame*> candidates;
  for (DecodedFrame& f : trace.frames) {
    if (eligible(f.frame)) candidates.push_back(&f);
  }
  TraceMutation mutation;
  if (candidates.empty()) return mutation;
  DecodedFrame& target = *candidates[pick % candidates.size()];
  mutation.applied = true;
  mutation.step = target.step;

  // Decode, edit one field, re-encode: every other byte comes back as it
  // was read.
  std::ostringstream desc;
  std::visit(
      Overloaded{
          [&](JoinFrame& f) {
            f.byzantine = !f.byzantine;
            desc << "flipped join corruption bit at step " << target.step;
          },
          [&](BatchFrame& f) {
            const std::uint64_t byz = f.byzantine_joins;
            f.byzantine_joins = byz > 0 ? byz - 1 : byz + 1;
            desc << "changed batch byzantine joins " << byz << " -> "
                 << f.byzantine_joins << " (of " << f.joins
                 << ") at step " << target.step;
          },
          [&](SampleFrame& f) {
            ++f.sample.num_nodes;
            desc << "bumped sample num_nodes at step " << target.step;
          },
          [&](EndFrame& f) {
            ++f.summary.final_nodes;
            desc << "bumped summary final_nodes (end frame at step "
                 << target.step << ")";
          },
          [](auto&) {}},
      target.frame);
  mutation.description = desc.str();

  core::SnapshotWriter w;
  write_header(w, trace.header);
  for (const DecodedFrame& f : trace.frames) {
    std::visit([&](const auto& frame) { write_frame(w, frame); }, f.frame);
  }
  w.write_file(out_path, kTraceMagic, kTraceFormatVersion);
  return mutation;
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
