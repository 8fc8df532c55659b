// shard_socket: the multi-process sharded runtime over local sockets, under
// message faults, with one worker crash and checkpoint respawn per session.
//
// Three processes: this hub (a benchmark-owned loop of RoundEngine +
// ShardCoordinatorActor over FaultyTransport(SocketHub)) and two worker
// processes (this binary re-executed, run_worker over
// FaultyTransport(SocketSpoke)). A session is one whole deployment: spawn,
// connect, initialize, kSessionSteps lockstep steps, orderly shutdown.
// Sessions repeat until the run's time is up; each one is checked against
// the single-process reference digest computed before timing starts.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "net/faulty_transport.hpp"
#include "net/network.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "obs/obs.hpp"
#include "sim/shard_runtime.hpp"

namespace perfbench {
namespace {

using now::net::FaultPlan;
using now::net::FaultyTransport;
using now::net::Message;
using now::net::SocketHub;
using now::net::SocketSpoke;
using now::net::Transport;
using now::sim::ShardSpec;

// Hub + two workers: on a 4-vCPU host one vCPU stays free for the rest.
constexpr std::size_t kShardsPerRun = 2;
constexpr std::size_t kShardN0 = 400;
constexpr std::size_t kBatchOps = 1;  // one join + one leave per shard-step
constexpr std::size_t kSessionSteps = 1500;
constexpr std::size_t kCheckpointEvery = 50;
constexpr std::size_t kOpsPerStep = 2 * kBatchOps * kShardsPerRun;
constexpr std::size_t kCapturedFrames = 4096;
constexpr double kTailPercentile = 95;
// HostProbe samples before the first session and after each one.
constexpr std::size_t kProbesPerSession = 20;

FaultPlan fault_plan() {
  FaultPlan plan;
  plan.drop = 0.02;
  plan.duplicate = 0.02;
  plan.delay = 0.02;
  plan.reorder = 0.05;
  return plan;
}

/// Everything a session's processes must agree on, derived from the seed.
struct SocketInputs {
  ShardSpec spec;
  std::uint64_t fault_seed = 0;
  std::size_t crash_shard = 0;
  std::size_t crash_at = 0;
};

SocketInputs socket_inputs(std::uint64_t seed, const std::string& ckpt_dir) {
  SocketInputs in;
  in.spec.num_shards = kShardsPerRun;
  in.spec.steps = kSessionSteps;
  in.spec.batch_ops = kBatchOps;
  in.spec.n0 = kShardN0;
  in.spec.byz_fraction = 0.05;
  in.spec.seed = seed;
  in.spec.checkpoint_every = kCheckpointEvery;
  in.spec.checkpoint_dir = ckpt_dir;
  InputRng rng(seed ^ 0x50C4E7ULL);
  in.fault_seed = rng.next();
  in.crash_shard = rng.below(kShardsPerRun);
  // Mid-run, after the first checkpoint, never on a checkpoint step.
  in.crash_at = kSessionSteps / 4 + rng.below(kSessionSteps / 2);
  if (in.crash_at % kCheckpointEvery == 0) ++in.crash_at;
  return in;
}

double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return self_peak_rss_mb();
}

/// Benchmark-owned Transport decorator placed directly over the socket
/// transport (under the fault decorator, so it sees wire traffic). It notes
/// which round ran a new step and, given a step log, appends one line per
/// step: the step and this process's CPU time (cpu_ms) when that step's
/// barrier returned. Traced, it also times every end_round barrier and the
/// compute between barriers and counts the frames and encoded bytes sent.
class TimingTransport final : public Transport {
 public:
  struct Round {
    std::size_t round;
    double compute_ms;  // since the previous barrier returned
    double barrier_ms;  // inside the socket transport's end_round
    std::uint64_t new_step;  // step whose first digest left this round; 0 = none
  };

  TimingTransport(Transport& inner, bool traced, bool toggle_obs,
                  std::FILE* step_log)
      : inner_(inner),
        traced_(traced),
        toggle_obs_(toggle_obs),
        step_log_(step_log),
        last_exit_(Clock::now()) {}

  void open_endpoint(now::NodeId id) override { inner_.open_endpoint(id); }
  bool close_endpoint(now::NodeId id) override {
    return inner_.close_endpoint(id);
  }
  [[nodiscard]] bool is_live(now::NodeId id) const override {
    return inner_.is_live(id);
  }
  [[nodiscard]] std::size_t join_round() const override {
    return inner_.join_round();
  }

  void send(Message msg) override {
    if (traced_) {
      ++frames_;
      bytes_ += now::net::encode_frame(msg).size();
      capture(msg);
    }
    if (msg.tag == now::net::Tag::kShardDigest &&
        now::net::word_count(msg.payload) > 1) {
      const std::uint64_t step = now::net::word(msg.payload, 1);
      if (step > last_step_) {
        last_step_ = step;
        new_step_ = step;
      }
    }
    inner_.send(std::move(msg));
  }

  void end_round(std::size_t round) override {
    const auto enter = Clock::now();
    inner_.end_round(round);
    const auto exit = Clock::now();
    if (step_log_ != nullptr && new_step_ != 0) {
      std::fprintf(step_log_, "%llu %.6f\n",
                   static_cast<unsigned long long>(new_step_), cpu_ms());
      // A crash loses at most the lines since the last checkpoint step,
      // and the respawned worker replays those steps.
      if (new_step_ % kCheckpointEvery == 0) std::fflush(step_log_);
    }
    if (traced_) {
      rounds_.push_back({round, ms_between(last_exit_, enter),
                         ms_between(enter, exit), new_step_});
    }
    new_step_ = 0;
    last_exit_ = exit;
    // Telemetry on for odd steps only: the paired obs-overhead measure.
    if (toggle_obs_) now::obs::set_enabled((last_step_ + 1) % 2 == 1);
  }

  void poll(now::NodeId id, std::vector<Message>& out) override {
    inner_.poll(id, out);
    if (!traced_) return;
    for (const Message& m : out) {
      if (m.tag == now::net::Tag::kShardDigest &&
          now::net::word_count(m.payload) > 1) {
        ++digests_;
        first_digests_ += seen_.insert({now::net::word(m.payload, 0),
                                        now::net::word(m.payload, 1)})
                              .second;
      }
      capture(m);
    }
  }

  [[nodiscard]] const std::vector<Round>& rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t frames() const { return frames_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t digests() const { return digests_; }
  [[nodiscard]] std::uint64_t first_digests() const { return first_digests_; }
  [[nodiscard]] const std::vector<Message>& captured() const {
    return captured_;
  }

 private:
  void capture(const Message& m) {
    if (captured_.size() < kCapturedFrames) captured_.push_back(m);
  }

  Transport& inner_;
  bool traced_;
  bool toggle_obs_;
  std::FILE* step_log_;
  Clock::time_point last_exit_;
  std::uint64_t last_step_ = 0;
  std::uint64_t new_step_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t digests_ = 0;
  std::uint64_t first_digests_ = 0;
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen_;
  std::vector<Round> rounds_;
  std::vector<Message> captured_;
};

std::array<std::uint64_t, 5> count_faults(
    const std::vector<now::net::FaultEvent>& events) {
  std::array<std::uint64_t, 5> by_kind{};
  for (const auto& e : events) ++by_kind[static_cast<std::size_t>(e.kind)];
  return by_kind;
}

// ------------------------------------------------------------ worker side

/// What a worker reports back through its stats file on orderly exit.
struct WorkerStats {
  std::size_t shard = 0;
  double hwm_mb = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, 5> faults{};
  std::vector<TimingTransport::Round> rounds;
};

void write_stats(const std::string& path, const WorkerStats& s) {
  std::ofstream out(path + ".tmp");
  out << s.shard << ' ' << s.hwm_mb << ' ' << s.frames << ' ' << s.bytes;
  for (const auto f : s.faults) out << ' ' << f;
  out << ' ' << s.rounds.size() << '\n';
  for (const auto& r : s.rounds) {
    out << r.round << ' ' << r.compute_ms << ' ' << r.barrier_ms << ' '
        << r.new_step << '\n';
  }
  out.close();
  std::filesystem::rename(path + ".tmp", path);
}

WorkerStats read_stats(const std::string& path) {
  std::ifstream in(path);
  WorkerStats s;
  std::size_t rounds = 0;
  in >> s.shard >> s.hwm_mb >> s.frames >> s.bytes;
  for (auto& f : s.faults) in >> f;
  in >> rounds;
  for (std::size_t i = 0; i < rounds && in; ++i) {
    TimingTransport::Round r{};
    in >> r.round >> r.compute_ms >> r.barrier_ms >> r.new_step;
    s.rounds.push_back(r);
  }
  if (!in) throw std::runtime_error("malformed worker stats file " + path);
  return s;
}

struct WorkerArgs {
  std::uint16_t port = 0;
  std::size_t shard = 0;
  std::uint64_t seed = 0;
  bool trace = false;
  std::size_t crash_at = 0;
  std::size_t generation = 0;  // 0 for a shard's first process, 1 respawned
  std::string session_dir;
};

/// A worker's step log: one line "step cpu_ms" per step it ran.
std::string cpu_log_path(const std::string& session_dir, std::size_t shard,
                         std::size_t generation) {
  return session_dir + "/cpu_" + std::to_string(shard) + "_" +
         std::to_string(generation) + ".log";
}

/// CPU time (ms) a shard's processes spent on each step, from their step
/// logs: the CPU time between the step's line and the previous line of the
/// same process; the first line of a process carries everything since the
/// process started (set-up, or restore after a crash). Steps a respawned
/// process replayed take the respawned process's figure; a step with no
/// line (around a crash, where the respawned process's first line carries
/// its restore and replay) counts 0.
std::map<std::uint64_t, double> shard_step_cpu(const std::string& session_dir,
                                               std::size_t shard) {
  std::map<std::uint64_t, double> cpu;
  for (std::size_t gen = 0;; ++gen) {
    std::ifstream in(cpu_log_path(session_dir, shard, gen));
    if (!in) break;
    std::uint64_t step = 0;
    double at = 0;
    double prev = 0;
    while (in >> step >> at) {
      cpu[step] = at - prev;
      prev = at;
    }
  }
  return cpu;
}

std::vector<std::string> worker_argv(const WorkerArgs& a) {
  return {"/proc/self/exe",      "worker",
          "--port",              std::to_string(a.port),
          "--shard",             std::to_string(a.shard),
          "--seed",              std::to_string(a.seed),
          "--trace",             a.trace ? "1" : "0",
          "--crash-at",          std::to_string(a.crash_at),
          "--generation",        std::to_string(a.generation),
          "--session-dir",       a.session_dir};
}

// -------------------------------------------------------------- hub side

/// The worker processes of one session. Reaps every child it spawned; the
/// destructor kills and waits for any still running (error paths).
class WorkerSet {
 public:
  WorkerSet() = default;
  WorkerSet(const WorkerSet&) = delete;
  WorkerSet& operator=(const WorkerSet&) = delete;
  ~WorkerSet() {
    for (const auto& [shard, pid] : live_) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }

  void spawn(const WorkerArgs& a) {
    const auto args = worker_argv(a);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      std::vector<char*> argv;
      for (const std::string& s : args) argv.push_back(const_cast<char*>(s.c_str()));
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    live_[a.shard] = pid;
  }

  /// Waits for shard's current process; returns its exit code (-1 if it
  /// died on a signal, -2 if there is no such process).
  int reap(std::size_t shard) {
    const auto it = live_.find(shard);
    if (it == live_.end()) return -2;
    int status = 0;
    ::waitpid(it->second, &status, 0);
    live_.erase(it);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  [[nodiscard]] std::vector<std::size_t> shards() const {
    std::vector<std::size_t> out;
    for (const auto& [shard, pid] : live_) out.push_back(shard);
    return out;
  }

 private:
  std::map<std::size_t, pid_t> live_;
};

struct Session {
  double setup_s = 0;                // wall
  double setup_cpu_s = 0;            // hub + workers
  std::vector<double> step_ms;       // merge-to-merge intervals (wall)
  std::vector<double> step_cpu_ms;   // CPU of hub + workers per interval
  std::vector<std::size_t> step_no;  // merged step each interval ends at
  std::uint64_t digest = 0;
  std::size_t merged = 0;
  std::size_t respawns = 0;
  std::size_t crash_exits = 0;
  std::size_t bad_exits = 0;
  std::size_t missing_cpu = 0;  // shard-steps without a step-log line
  double recovery_ms = -1;
  std::size_t engine_rounds = 0;
  double worker_hwm_mb = 0;
  // traced runs only
  std::vector<double> round_ms;        // hub run_round
  std::vector<double> hub_barrier_ms;  // hub end_round
  std::vector<double> step_hub_compute_ms;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t digests = 0;
  std::uint64_t first_digests = 0;
  std::array<std::uint64_t, 5> faults{};
  std::vector<Message> captured;
  std::vector<WorkerStats> workers;
};

Session run_session(const RunConfig& config, const SocketInputs& in,
                    const std::string& session_dir, SpanLog& spans) {
  Session out;
  const auto t0 = Clock::now();
  const double cpu0 = cpu_ms();
  std::vector<double> hub_cpu_ms;  // hub CPU per merge-to-merge interval
  std::filesystem::remove_all(session_dir);
  std::filesystem::create_directories(session_dir);

  auto hub = SocketHub::listen(kShardsPerRun);
  WorkerSet workers;
  WorkerArgs args;
  args.port = hub->port();
  args.seed = in.spec.seed;
  args.trace = config.trace;
  args.session_dir = session_dir;
  for (std::size_t s = 0; s < kShardsPerRun; ++s) {
    args.shard = s;
    args.crash_at = s == in.crash_shard ? in.crash_at : 0;
    workers.spawn(args);
  }
  hub->accept_initial();

  std::unique_ptr<TimingTransport> timing;
  Transport* below_faults = hub.get();
  if (config.trace) {
    timing = std::make_unique<TimingTransport>(*hub, /*traced=*/true,
                                               /*toggle_obs=*/false, nullptr);
    below_faults = timing.get();
  }
  FaultyTransport faulty(*below_faults, fault_plan(), in.fault_seed);
  now::Metrics scratch;
  now::net::RoundEngine engine{scratch, faulty};
  auto coordinator = std::make_unique<now::sim::ShardCoordinatorActor>(in.spec);
  const auto* coord = coordinator.get();
  engine.add_actor(now::sim::coordinator_node(), std::move(coordinator));

  const std::size_t cap = in.spec.effective_round_cap();
  std::vector<std::size_t> generation(kShardsPerRun, 0);
  Clock::time_point prev_merge{};
  double prev_merge_cpu = 0;
  std::size_t first_merged = 0;
  Clock::time_point crash_seen{};
  bool crash_pending = false;
  double step_compute_ms = 0;
  while (true) {
    if (engine.round() >= cap) {
      throw std::runtime_error("socket session exceeded its round cap");
    }
    const std::uint64_t step = out.merged + 1;  // the step being worked on
    const std::size_t span = timing ? spans.open("hub.run_round", step) : 0;
    const auto r0 = Clock::now();
    engine.run_round();
    const auto r1 = Clock::now();
    if (timing) {
      spans.close(span);
      const double round = ms_between(r0, r1);
      const double barrier = timing->rounds().back().barrier_ms;
      spans.add("net.end_round", step, span,
                r1 - std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(barrier)),
                barrier);
      out.round_ms.push_back(round);
      out.hub_barrier_ms.push_back(barrier);
      step_compute_ms += round - barrier;
    }
    const std::size_t merged = coord->result().steps_completed;
    if (merged > out.merged) {
      const double cpu = cpu_ms();
      if (out.merged == 0) {
        out.setup_s = ms_between(t0, r1) / 1000.0;
        out.setup_cpu_s = (cpu - cpu0) / 1000.0;
        first_merged = merged;
      } else {
        out.step_ms.push_back(ms_between(prev_merge, r1));
        hub_cpu_ms.push_back(cpu - prev_merge_cpu);
        out.step_no.push_back(merged);
        if (timing) out.step_hub_compute_ms.push_back(step_compute_ms);
      }
      prev_merge_cpu = cpu;
      step_compute_ms = 0;
      if (crash_pending) {
        out.recovery_ms = ms_between(crash_seen, r1);
        crash_pending = false;
      }
      prev_merge = r1;
      out.merged = merged;
    }
    for (const std::uint64_t dead : hub->drain_dead_processes()) {
      const auto shard = static_cast<std::size_t>(dead);
      const int code = workers.reap(shard);
      if (code == now::sim::ShardWorkerActor::kCrashExitCode) {
        ++out.crash_exits;
      } else if (code != 0) {
        ++out.bad_exits;
      }
      if (coord->finished()) continue;
      // Respawn without the crash flag: recover from the checkpoint.
      crash_seen = Clock::now();
      crash_pending = true;
      ++out.respawns;
      args.shard = shard;
      args.crash_at = 0;
      args.generation = ++generation[shard];
      workers.spawn(args);
    }
    if (coord->finished() && hub->num_live_spokes() == 0) break;
  }
  for (const std::size_t shard : workers.shards()) {
    if (workers.reap(shard) != 0) ++out.bad_exits;
  }
  out.digest = coord->result().run_digest;
  out.engine_rounds = coord->result().engine_rounds;

  // CPU per interval: the hub's plus every shard's for the steps merged in
  // it; set-up: the hub's until the first merge plus the workers' through
  // the first step.
  out.step_cpu_ms = hub_cpu_ms;
  for (std::size_t shard = 0; shard < kShardsPerRun; ++shard) {
    const auto cpu = shard_step_cpu(session_dir, shard);
    const auto at = [&](std::uint64_t step) {
      const auto it = cpu.find(step);
      if (it != cpu.end()) return it->second;
      ++out.missing_cpu;
      return 0.0;
    };
    for (std::uint64_t step = 1; step <= first_merged; ++step) {
      out.setup_cpu_s += at(step) / 1000.0;
    }
    std::uint64_t prev = first_merged;
    for (std::size_t i = 0; i < out.step_no.size(); ++i) {
      for (std::uint64_t step = prev + 1; step <= out.step_no[i]; ++step) {
        out.step_cpu_ms[i] += at(step);
      }
      prev = out.step_no[i];
    }
  }

  for (const auto& entry : std::filesystem::directory_iterator(session_dir)) {
    if (entry.path().extension() != ".stats") continue;
    WorkerStats w = read_stats(entry.path().string());
    out.worker_hwm_mb = std::max(out.worker_hwm_mb, w.hwm_mb);
    if (config.trace) out.workers.push_back(std::move(w));
  }
  if (timing) {
    out.frames = timing->frames();
    out.bytes = timing->bytes();
    out.digests = timing->digests();
    out.first_digests = timing->first_digests();
    out.captured = timing->captured();
    out.faults = count_faults(faulty.events());
  }
  return out;
}

/// encode_frame + decode_frame over the captured frames, ns per frame.
double codec_ns_per_frame(const std::vector<Message>& frames, Result& result) {
  if (frames.empty()) return 0;
  std::vector<double> per_frame;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = Clock::now();
    for (const Message& m : frames) {
      const auto bytes = now::net::encode_frame(m);
      if (!(now::net::decode_frame(bytes) == m)) {
        result.wrong("wire codec did not round-trip a captured frame");
        return 0;
      }
    }
    per_frame.push_back(ms_between(t0, Clock::now()) * 1e6 /
                        static_cast<double>(frames.size()));
  }
  return median(per_frame);
}

double checkpoint_save_ms(const SocketInputs& in, const std::string& dir) {
  std::filesystem::create_directories(dir);
  now::sim::ShardSim sim(in.spec, 0);
  sim.run_step();
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = Clock::now();
    sim.save_checkpoint(dir);
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

double agreement_init_s(const SocketInputs& in) {
  std::vector<double> s;
  for (int i = 0; i < 3; ++i) {
    now::Metrics metrics;
    now::core::NowSystem system(in.spec.params, metrics,
                                in.spec.seed + static_cast<std::uint64_t>(i));
    const auto t0 = Clock::now();
    (void)system.initialize(kShardN0, kShardN0 / 20,
                            now::core::InitTopology::kSparseRandom);
    s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  return median(s);
}

void report_traced(const std::vector<Session>& sessions, const SocketInputs& in,
                   const std::string& work_dir, Result& result) {
  std::vector<double> round_ms, hub_barrier, worker_barrier, hub_step_compute,
      critical_worker, other, recovery, obs_diff, obs_off, step_ms;
  std::uint64_t frames = 0, bytes = 0, digests = 0, first_digests = 0,
                rounds = 0, steps = 0;
  std::array<std::uint64_t, 5> faults{};
  std::vector<Message> captured;
  for (const Session& s : sessions) {
    round_ms.insert(round_ms.end(), s.round_ms.begin(), s.round_ms.end());
    hub_barrier.insert(hub_barrier.end(), s.hub_barrier_ms.begin(),
                       s.hub_barrier_ms.end());
    step_ms.insert(step_ms.end(), s.step_ms.begin(), s.step_ms.end());
    frames += s.frames;
    bytes += s.bytes;
    digests += s.digests;
    first_digests += s.first_digests;
    rounds += s.engine_rounds;
    steps += s.merged;
    for (std::size_t k = 0; k < faults.size(); ++k) faults[k] += s.faults[k];
    if (captured.empty()) captured = s.captured;
    if (s.recovery_ms >= 0) recovery.push_back(s.recovery_ms);
    // Critical worker per step: the slowest shard's compute for that step
    // (a replay after respawn overwrites the lost process's record).
    std::vector<double> step_worker(in.spec.steps + 1, 0.0);
    std::vector<std::map<std::uint64_t, double>> per_shard(kShardsPerRun);
    for (const WorkerStats& w : s.workers) {
      frames += w.frames;
      bytes += w.bytes;
      for (std::size_t k = 0; k < faults.size(); ++k) faults[k] += w.faults[k];
      for (const auto& r : w.rounds) {
        worker_barrier.push_back(r.barrier_ms);
        if (r.new_step != 0 && w.shard < kShardsPerRun) {
          per_shard[w.shard][r.new_step] = r.compute_ms;
        }
      }
    }
    for (const auto& shard : per_shard) {
      for (const auto& [step, ms] : shard) {
        if (step <= in.spec.steps) {
          step_worker[step] = std::max(step_worker[step], ms);
        }
      }
      // Paired obs overhead: odd steps ran with telemetry on, even off.
      for (const auto& [step, ms] : shard) {
        const auto next = shard.find(step + 1);
        if (step % 2 == 1 && next != shard.end()) {
          obs_diff.push_back(ms - next->second);
          obs_off.push_back(next->second);
        }
      }
    }
    for (std::size_t i = 0; i < s.step_ms.size(); ++i) {
      const double w = step_worker[s.step_no[i]];
      const double hub = s.step_hub_compute_ms[i];
      hub_step_compute.push_back(hub);
      critical_worker.push_back(w);
      other.push_back(s.step_ms[i] - hub - w);
    }
  }
  const double hub_compute = median(hub_step_compute);
  const double worker_step = median(critical_worker);
  const double net_other = median(other);
  print_blocking_path("shard_socket",
                      {{"net.hub_compute_ms", hub_compute},
                       {"sim.worker_step_ms", worker_step},
                       {"net.step_other_ms", net_other}},
                      median(step_ms));
  const double r = static_cast<double>(std::max<std::uint64_t>(1, rounds));
  result.metric("net.hub_round_ms", median(round_ms), "ms");
  result.metric("net.hub_compute_ms", hub_compute, "ms");
  result.metric("net.hub_barrier_ms", median(hub_barrier), "ms");
  result.metric("net.worker_barrier_ms", median(worker_barrier), "ms");
  result.metric("net.step_other_ms", net_other, "ms");
  result.metric("net.frames_per_round", static_cast<double>(frames) / r,
                "count");
  result.metric("net.bytes_per_round", static_cast<double>(bytes) / r, "B");
  result.metric("net.codec_ns_per_frame", codec_ns_per_frame(captured, result),
                "ns");
  using Kind = now::net::FaultEvent::Kind;
  const auto per_kround = [&](Kind k) {
    return 1000.0 * static_cast<double>(faults[static_cast<std::size_t>(k)]) /
           r;
  };
  result.metric("net.faults_per_kround.drop", per_kround(Kind::kDrop), "count");
  result.metric("net.faults_per_kround.duplicate",
                per_kround(Kind::kDuplicate), "count");
  result.metric("net.faults_per_kround.delay", per_kround(Kind::kDelay),
                "count");
  result.metric("net.faults_per_kround.reorder", per_kround(Kind::kReorder),
                "count");
  result.metric("sim.worker_step_ms", worker_step, "ms");
  result.metric("sim.rounds_per_step",
                r / static_cast<double>(std::max<std::uint64_t>(1, steps)),
                "count");
  result.metric("sim.digest_useful_ratio",
                digests > 0 ? static_cast<double>(first_digests) /
                                  static_cast<double>(digests)
                            : 0,
                "ratio");
  result.metric("sim.ckpt_save_ms",
                checkpoint_save_ms(in, work_dir + "/ckpt_probe"), "ms");
  result.metric("sim.recovery_ms", median(recovery), "ms");
  result.metric("agreement.init_s", agreement_init_s(in), "s");
  const double off = median(obs_off);
  result.metric("obs.overhead_pct",
                off > 0 ? 100.0 * median(obs_diff) / off : 0, "%");
}

}  // namespace

void run_shard_socket(const RunConfig& config, Result& result) {
  // The steps' work runs in the workers, on other cores than the hub's
  // probe, so the probe only reports (host.calib_ms) and scales nothing:
  // scaled by it, ten-run spreads were 2-3x those of the unscaled figures.
  HostProbe probe(HostProbe::kNoScaling);
  probe.sample(kProbesPerSession, 0);
  const std::string ckpt_root = config.work_dir + "/socket";
  const SocketInputs in = socket_inputs(config.seed, ckpt_root + "/session");

  // Reference digest: the same spec single-process and fault-free, before
  // any timing starts.
  ShardSpec reference_spec = in.spec;
  reference_spec.checkpoint_every = 0;
  reference_spec.checkpoint_dir.clear();
  const auto reference = now::sim::run_single_process(reference_spec);
  const std::uint64_t expected = config.have_expected_digest
                                     ? config.expected_digest
                                     : reference.run_digest;
  std::fprintf(stderr, "reference digest %016llx over %zu steps\n",
               static_cast<unsigned long long>(reference.run_digest),
               reference.steps_completed);

  std::vector<Session> sessions;
  SpanLog spans;  // traced runs: hub rounds and their barriers
  auto start = Clock::now();
  std::size_t timed_steps = 0;  // over the sessions so far
  do {
    result.attempt(kSessionSteps);
    Session s = run_session(config, in, ckpt_root + "/session", spans);
    result.fail_ops(kSessionSteps - std::min(kSessionSteps, s.merged));
    const std::string tag = "session " + std::to_string(sessions.size());
    if (s.digest != expected) {
      char buf[96];
      std::snprintf(buf, sizeof buf, ": run digest %016llx != expected %016llx",
                    static_cast<unsigned long long>(s.digest),
                    static_cast<unsigned long long>(expected));
      result.wrong(tag + buf);
    }
    if (s.merged != kSessionSteps) result.wrong(tag + ": not every step merged");
    if (s.respawns != 1 || s.crash_exits != 1) {
      result.wrong(tag + ": expected exactly one crash and one respawn, saw " +
                   std::to_string(s.crash_exits) + " and " +
                   std::to_string(s.respawns));
    }
    if (s.bad_exits != 0) result.wrong(tag + ": a worker exited abnormally");
    sessions.push_back(std::move(s));
    // Between sessions no worker runs, so the probe has the host to itself.
    const auto p0 = Clock::now();
    timed_steps += sessions.back().step_ms.size();
    probe.sample(kProbesPerSession, timed_steps);
    start += Clock::now() - p0;
  } while (ms_between(start, Clock::now()) < config.seconds * 1000.0 &&
           result.correct());
  std::filesystem::remove_all(ckpt_root);

  // Timed steps of every session back to back; set-up gaps are excluded.
  std::vector<double> setup, step_ms, end_ms, wall_ms, wall_end_ms;
  double rss = vm_hwm_mb();
  std::size_t missing_cpu = 0;
  for (const Session& s : sessions) {
    setup.push_back(s.setup_cpu_s);
    for (const double ms : s.step_cpu_ms) {
      end_ms.push_back((end_ms.empty() ? 0.0 : end_ms.back()) + ms);
      step_ms.push_back(ms);
    }
    for (const double ms : s.step_ms) {
      wall_end_ms.push_back((wall_end_ms.empty() ? 0.0 : wall_end_ms.back()) +
                            ms);
      wall_ms.push_back(ms);
    }
    rss = std::max(rss, s.worker_hwm_mb);
    missing_cpu += s.missing_cpu;
  }
  std::fprintf(stderr, "sessions=%zu; wall set-up (s):", sessions.size());
  for (const Session& s : sessions) std::fprintf(stderr, " %.4f", s.setup_s);
  std::fprintf(stderr, "\n");
  std::fprintf(stderr, "shard-steps without a step-log line: %zu\n",
               missing_cpu);
  if (config.trace) {
    report_traced(sessions, in, config.work_dir, result);
    result.metric("host.calib_ms", probe.median_ms(), "ms");
    report_step_shape(result, wall_ms, wall_end_ms, kTailPercentile);
    std::filesystem::remove_all(config.work_dir + "/ckpt_probe");
    spans.write_chrome_trace(config.work_dir + "/spans_shard_socket.json");
    return;
  }
  report_end_to_end(result, probe, setup, step_ms, end_ms, wall_ms,
                    static_cast<double>(kOpsPerStep), kTailPercentile, rss);
}

int shard_socket_worker(int argc, char** argv) {
  WorkerArgs a;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--port") {
      a.port = static_cast<std::uint16_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--shard") {
      a.shard = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      a.trace = std::string_view(value) == "1";
    } else if (flag == "--crash-at") {
      a.crash_at = std::strtoull(value, nullptr, 10);
    } else if (flag == "--session-dir") {
      a.session_dir = value;
    } else if (flag == "--generation") {
      a.generation = std::strtoull(value, nullptr, 10);
    }
  }
  try {
    const SocketInputs in = socket_inputs(a.seed, a.session_dir);
    auto spoke = SocketSpoke::connect(a.port, a.shard);
    std::FILE* step_log =
        std::fopen(cpu_log_path(a.session_dir, a.shard, a.generation).c_str(),
                   "w");
    if (step_log == nullptr) throw std::runtime_error("cannot open step log");
    TimingTransport timing(*spoke, a.trace, /*toggle_obs=*/a.trace, step_log);
    FaultyTransport faulty(timing, fault_plan(), in.fault_seed);
    now::sim::run_worker(in.spec, a.shard, faulty, a.crash_at);
    std::fclose(step_log);
    now::obs::set_enabled(false);
    WorkerStats stats;
    stats.shard = a.shard;
    stats.hwm_mb = vm_hwm_mb();
    stats.faults = count_faults(faulty.events());
    stats.frames = timing.frames();
    stats.bytes = timing.bytes();
    stats.rounds = timing.rounds();
    write_stats(a.session_dir + "/worker_" + std::to_string(a.shard) + "_" +
                    std::to_string(::getpid()) + ".stats",
                stats);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker %zu: %s\n", a.shard, e.what());
    return 1;
  }
}

}  // namespace perfbench
