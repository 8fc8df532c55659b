#include "sim/shard_runtime.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/snapshot.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"

namespace now::sim {

namespace {

constexpr std::string_view kCheckpointMagic = "NOWSHARD";
/// Embeds a save_system payload, so any change to that payload bumps it
/// (v2: no PlanCache blob).
constexpr std::uint32_t kCheckpointVersion = 2;

// Stream tags separating the per-shard seed derivations from each other
// (and from anything the scenario driver derives from the same user seed).
constexpr std::uint64_t kSystemSeedStream = 0x5348534541ULL;   // "SHSEA"
constexpr std::uint64_t kDriverSeedStream = 0x534844525BULL;

[[nodiscard]] std::string checkpoint_path(const std::string& dir,
                                          std::size_t shard) {
  return dir + "/shard_" + std::to_string(shard) + ".ckpt";
}

/// Number of payload words in a digest report (see ShardSim::report).
constexpr std::size_t kReportWords = 11;

}  // namespace

// ---------------------------------------------------------------------------
// ShardSim

ShardSim::ShardSim(const ShardSpec& spec, std::size_t shard)
    : spec_(spec),
      shard_(shard),
      system_(spec.params, metrics_,
              Rng::derive_stream(spec.seed, kSystemSeedStream, shard).next()),
      driver_rng_(
          Rng::derive_stream(spec.seed, kDriverSeedStream, shard).next()) {
  // The population is initialized lazily on the first run_step so that
  // load_checkpoint can restore into a freshly constructed system (the
  // snapshot layer rejects restoring over an initialized one).
}

void ShardSim::run_step() {
  // (round, step) correlation key for tools/now_obs: every process tags
  // its per-step span with (shard, step), so merged timelines line up
  // by step even though the processes' clocks are independent.
  obs::ScopedSpan span(obs::Cat::kShard, "shard.step", nullptr, shard_,
                       completed_ + 1);
  if (completed_ == 0 && system_.num_nodes() == 0) {
    // Lazy first-use initialization (skipped entirely on restore).
    const auto byz0 = static_cast<std::size_t>(std::floor(
        spec_.byz_fraction * static_cast<double>(spec_.n0)));
    (void)system_.initialize(spec_.n0, byz0);
  }
  const std::size_t live = system_.num_nodes();
  const std::size_t ops =
      std::min(spec_.batch_ops, live > 2 ? live - 2 : std::size_t{0});
  const auto victims =
      system_.state().sample_distinct_nodes(driver_rng_, ops);
  (void)system_.step_parallel_mixed(ops, /*byzantine_joins=*/0, victims,
                                    /*shards=*/1);
  ++completed_;

  const auto inv = system_.check();
  const std::uint64_t messages = messages_base_ + metrics_.total().messages;
  const std::uint64_t rounds = rounds_base_ + metrics_.total().rounds;

  // Chain the digest over everything the future trajectory depends on:
  // the invariant sample pins the observable state, the RNG states pin the
  // unobservable remainder (two diverging states cannot produce equal
  // digests for long).
  core::SnapshotWriter w;
  w.u64(digest_);
  w.u64(completed_);
  w.u64(inv.num_nodes);
  w.u64(inv.num_clusters);
  w.u64(inv.min_cluster_size);
  w.u64(inv.max_cluster_size);
  w.u64(inv.compromised_clusters);
  w.f64(inv.worst_byz_fraction);
  w.u64(messages);
  w.u64(rounds);
  for (const std::uint64_t word : driver_rng_.state()) w.u64(word);
  for (const std::uint64_t word : system_.rng().state()) w.u64(word);
  digest_ = core::fnv1a64(w.buffer().data(), w.buffer().size());

  report_ = {shard_,
             completed_,
             digest_,
             inv.num_nodes,
             inv.num_clusters,
             inv.min_cluster_size,
             inv.max_cluster_size,
             inv.compromised_clusters,
             std::bit_cast<std::uint64_t>(inv.worst_byz_fraction),
             messages,
             rounds};
}

void ShardSim::save_checkpoint(const std::string& dir) const {
  obs::ScopedSpan span(obs::Cat::kSnapshot, "ckpt.save", nullptr, shard_,
                       completed_);
  core::SnapshotWriter w;
  w.u64(shard_);
  w.u64(completed_);
  w.u64(digest_);
  w.u64(messages_base_ + metrics_.total().messages);
  w.u64(rounds_base_ + metrics_.total().rounds);
  w.u64(report_.size());
  for (const std::uint64_t word : report_) w.u64(word);
  for (const std::uint64_t word : driver_rng_.state()) w.u64(word);
  core::save_params(spec_.params, w);
  core::save_system(system_, w);

  const std::string path = checkpoint_path(dir, shard_);
  const std::string tmp = path + ".tmp";
  w.write_file(tmp, kCheckpointMagic, kCheckpointVersion);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw core::SnapshotError("checkpoint rename failed: " + path);
  }
}

std::unique_ptr<ShardSim> ShardSim::load_checkpoint(const ShardSpec& spec,
                                                    std::size_t shard,
                                                    const std::string& dir) {
  // read_file throws when there is no (usable) checkpoint — a normal
  // fresh-start probe, so the restore span opens only once it succeeds.
  core::SnapshotReader r = core::SnapshotReader::read_file(
      checkpoint_path(dir, shard), kCheckpointMagic, kCheckpointVersion,
      kCheckpointVersion);
  obs::ScopedSpan span(obs::Cat::kSnapshot, "ckpt.restore", nullptr, shard);
  auto sim = std::unique_ptr<ShardSim>(new ShardSim(spec, shard));
  if (r.u64() != shard) {
    throw core::SnapshotError("checkpoint is for a different shard");
  }
  sim->completed_ = r.u64();
  sim->digest_ = r.u64();
  sim->messages_base_ = r.u64();
  sim->rounds_base_ = r.u64();
  const std::uint64_t words = r.count(8);
  if (words != kReportWords && words != 0) {
    throw core::SnapshotError("checkpoint report has unexpected size");
  }
  sim->report_.clear();
  for (std::uint64_t i = 0; i < words; ++i) sim->report_.push_back(r.u64());
  std::array<std::uint64_t, 4> rng_state{};
  for (std::uint64_t& word : rng_state) word = r.u64();
  sim->driver_rng_.restore_state(rng_state);
  core::check_params(spec.params, r);
  core::load_system(sim->system_, r);
  span.set_args(shard, sim->completed_);
  return sim;
}

// ---------------------------------------------------------------------------
// ShardWorkerActor

ShardWorkerActor::ShardWorkerActor(const ShardSpec& spec,
                                   std::unique_ptr<ShardSim> sim,
                                   std::size_t crash_after)
    : spec_(spec), sim_(std::move(sim)), crash_after_(crash_after) {}

void ShardWorkerActor::on_round(std::size_t /*round*/,
                                std::span<const net::Message> inbox,
                                net::Outbox& out) {
  if (done_) return;
  for (const net::Message& m : inbox) {
    if (m.tag == net::Tag::kShardGo && net::word_count(m.payload) == 1) {
      go_ = std::max(go_, static_cast<std::size_t>(net::word(m.payload, 0)));
    } else if (m.tag == net::Tag::kShardBye) {
      done_ = true;
      return;
    }
  }
  if (sim_->completed() < spec_.steps && sim_->completed() <= go_) {
    sim_->run_step();
    if (spec_.checkpoint_every > 0 && !spec_.checkpoint_dir.empty() &&
        sim_->completed() % spec_.checkpoint_every == 0) {
      sim_->save_checkpoint(spec_.checkpoint_dir);
    }
    if (crash_after_ != 0 && sim_->completed() == crash_after_) {
      // Simulated hard crash: no destructors, no flushing — the respawned
      // process must recover from the checkpoint alone.
      ::_exit(kCrashExitCode);
    }
    static const std::uint32_t kReportName =
        obs::span_name_id("shard.report");
    obs::instant(obs::Cat::kShard, kReportName, sim_->shard(),
                 sim_->completed());
    out.send(coordinator_node(), net::Tag::kShardDigest,
             net::pack_words(sim_->report()));
  } else if (sim_->completed() > 0) {
    // Not cleared to advance: retransmit the newest digest until the
    // coordinator acknowledges it (handles dropped digests AND replays
    // after a crash-restore, with no dedicated recovery path).
    static const std::uint32_t kRetransmitName =
        obs::span_name_id("shard.retransmit");
    obs::instant(obs::Cat::kShard, kRetransmitName, sim_->shard(),
                 sim_->completed());
    out.send(coordinator_node(), net::Tag::kShardDigest,
             net::pack_words(sim_->report()));
  }
}

// ---------------------------------------------------------------------------
// ShardCoordinatorActor

ShardCoordinatorActor::ShardCoordinatorActor(const ShardSpec& spec)
    : spec_(spec) {
  pending_.resize(spec.steps);
  for (PendingStep& p : pending_) {
    p.digest.assign(spec.num_shards, 0);
    p.report.resize(spec.num_shards);
  }
}

void ShardCoordinatorActor::on_round(std::size_t round,
                                     std::span<const net::Message> inbox,
                                     net::Outbox& out) {
  for (const net::Message& m : inbox) {
    if (m.tag != net::Tag::kShardDigest ||
        net::word_count(m.payload) != 11) {
      continue;
    }
    const auto shard = static_cast<std::size_t>(net::word(m.payload, 0));
    const auto step = static_cast<std::size_t>(net::word(m.payload, 1));
    const std::uint64_t digest = net::word(m.payload, 2);
    if (shard >= spec_.num_shards || step < 1 || step > spec_.steps) {
      continue;
    }
    PendingStep& p = pending_[step - 1];
    if (p.digest[shard] == 0) {
      p.digest[shard] = digest;
      auto& rep = p.report[shard];
      rep.clear();
      for (std::size_t i = 0; i < net::word_count(m.payload); ++i) {
        rep.push_back(net::word(m.payload, i));
      }
      ++p.have;
    } else if (p.digest[shard] != digest) {
      // Two reports of the same (shard, step) disagreeing means a shard's
      // replay diverged from its original execution — determinism broken.
      throw std::runtime_error(
          "shard digest mismatch: shard " + std::to_string(shard) +
          " step " + std::to_string(step));
    }
  }

  while (merged_ < spec_.steps && pending_[merged_].have == spec_.num_shards) {
    const PendingStep& p = pending_[merged_];
    core::SnapshotWriter w;
    w.u64(merged_ + 1);
    for (const std::uint64_t d : p.digest) w.u64(d);
    const std::uint64_t step_digest =
        core::fnv1a64(w.buffer().data(), w.buffer().size());

    core::SnapshotWriter chain;
    chain.u64(result_.run_digest);
    chain.u64(step_digest);
    result_.run_digest =
        core::fnv1a64(chain.buffer().data(), chain.buffer().size());
    result_.step_digests.push_back(step_digest);

    ShardStepStats stats;
    for (const auto& rep : p.report) {
      stats.num_nodes += rep[3];
      stats.num_clusters += rep[4];
      stats.min_cluster = stats.min_cluster == 0
                              ? rep[5]
                              : std::min(stats.min_cluster, rep[5]);
      stats.max_cluster = std::max(stats.max_cluster, rep[6]);
      stats.compromised += rep[7];
      stats.worst_byz =
          std::max(stats.worst_byz, std::bit_cast<double>(rep[8]));
      stats.messages += rep[9];
      stats.rounds += rep[10];
    }
    result_.final_stats = stats;
    ++merged_;
    result_.steps_completed = merged_;
    static const std::uint32_t kMergeName = obs::span_name_id("shard.merge");
    obs::instant(obs::Cat::kShard, kMergeName, merged_, step_digest);
  }

  if (merged_ == spec_.steps) finished_ = true;
  for (std::size_t s = 0; s < spec_.num_shards; ++s) {
    if (finished_) {
      out.send(shard_node(s), net::Tag::kShardBye);
    } else {
      out.send(shard_node(s), net::Tag::kShardGo, net::make_words({merged_}));
    }
  }
  result_.engine_rounds = round + 1;
}

// ---------------------------------------------------------------------------
// Runners

ShardRunResult run_single_process(const ShardSpec& spec,
                                  const net::FaultPlan* faults,
                                  std::uint64_t fault_seed) {
  Metrics scratch;
  net::InProcTransport inproc;
  std::unique_ptr<net::FaultyTransport> faulty;
  net::Transport* transport = &inproc;
  if (faults != nullptr && faults->any()) {
    faulty = std::make_unique<net::FaultyTransport>(inproc, *faults,
                                                    fault_seed);
    transport = faulty.get();
  }
  net::RoundEngine engine{scratch, *transport};

  auto coordinator = std::make_unique<ShardCoordinatorActor>(spec);
  const auto* coord = coordinator.get();
  engine.add_actor(coordinator_node(), std::move(coordinator));
  for (std::size_t s = 0; s < spec.num_shards; ++s) {
    engine.add_actor(shard_node(s),
                     std::make_unique<ShardWorkerActor>(
                         spec, std::make_unique<ShardSim>(spec, s)));
  }

  const std::size_t cap = spec.effective_round_cap();
  while (!coord->finished()) {
    if (engine.round() >= cap) {
      throw net::TransportError("shard run exceeded its round cap");
    }
    engine.run_round();
  }
  return coord->result();
}

void run_worker(const ShardSpec& spec, std::size_t shard,
                net::Transport& transport, std::size_t crash_after) {
  std::unique_ptr<ShardSim> sim;
  if (spec.checkpoint_every > 0 && !spec.checkpoint_dir.empty()) {
    try {
      sim = ShardSim::load_checkpoint(spec, shard, spec.checkpoint_dir);
      // A worker that starts from a checkpoint is (by construction of the
      // driver) a respawn after a crash; the instant makes the recovery
      // visible on the merged timeline.
      obs::instant(obs::Cat::kShard, obs::span_name_id("shard.respawn"),
                   shard, sim->completed());
    } catch (const core::SnapshotError&) {
      sim = nullptr;  // no (usable) checkpoint: fresh start
    }
  }
  if (!sim) sim = std::make_unique<ShardSim>(spec, shard);

  Metrics scratch;
  net::RoundEngine engine{scratch, transport};
  auto actor = std::make_unique<ShardWorkerActor>(spec, std::move(sim),
                                                  crash_after);
  const auto* worker = actor.get();
  engine.add_actor(shard_node(shard), std::move(actor));

  const std::size_t cap = spec.effective_round_cap();
  while (!worker->done()) {
    if (engine.round() >= cap) {
      throw net::TransportError("worker exceeded the round cap");
    }
    engine.run_round();
  }
}

ShardRunResult run_hub(const ShardSpec& spec, net::Transport& transport,
                       net::SocketHub& hub,
                       const std::function<void(bool)>& between_rounds) {
  Metrics scratch;
  net::RoundEngine engine{scratch, transport};
  auto coordinator = std::make_unique<ShardCoordinatorActor>(spec);
  const auto* coord = coordinator.get();
  engine.add_actor(coordinator_node(), std::move(coordinator));

  const std::size_t cap = spec.effective_round_cap();
  while (true) {
    if (engine.round() >= cap) {
      throw net::TransportError("shard run exceeded its round cap");
    }
    engine.run_round();
    if (between_rounds) between_rounds(coord->finished());
    // The coordinator re-broadcasts the end-of-run notice every round;
    // the run is over once every worker process has disconnected.
    if (coord->finished() && hub.num_live_spokes() == 0) break;
  }
  return coord->result();
}

}  // namespace now::sim
