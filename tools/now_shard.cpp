// now_shard — multi-process sharded runtime driver (DESIGN.md §12).
//
//   now_shard compare [--shards=N] [--steps=T] [--ops=K] [--n0=N] [--seed=S]
//                     [--drop=P] [--dup=P] [--delay=P] [--reorder=P]
//                     [--partition=P] [--partition-rounds=R]
//                     [--fault-seed=F] [--crash-shard=S --crash-at=T]
//                     [--ckpt-dir=DIR] [--ckpt-every=K] [--bench]
//                     [--obs-dir=DIR]
//       Runs the sharded protocol three ways — single-process fault-free
//       (the reference), single-process under the fault plan, and
//       multi-process over local sockets (one worker process per shard,
//       same fault plan, optionally crashing one worker which is then
//       respawned and recovers from its checkpoint) — and verifies all
//       three produce the IDENTICAL run digest. With --bench, writes
//       BENCH_multiproc.json for the bench-regression gate (digests,
//       verdict, and the multi-process run's cost and wall time). Exit 0
//       iff every deployment reproduced the reference digest.
//
//   now_shard worker --port=P --shard=S [same spec/fault flags]
//                    [--crash-at=T]
//       Internal: one worker process of a compare run. Connects to the
//       hub, resumes from a checkpoint when one exists, and serves its
//       shard until the coordinator ends the run.
//
//   With --obs-dir=DIR every process of the multi-process leg records
//   runtime telemetry (src/obs/) and writes DIR/OBS_<label>_pid<pid>.json
//   on orderly exit (a crashed worker writes nothing; its respawn writes
//   under the new pid). `now_obs merge DIR` folds the files into one
//   Perfetto-loadable trace. Telemetry never feeds state: digests are
//   bit-identical with or without --obs-dir.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.hpp"
#include "net/faulty_transport.hpp"
#include "net/socket_transport.hpp"
#include "obs/obs.hpp"
#include "sim/shard_runtime.hpp"

namespace {

using now::net::FaultPlan;
using now::net::FaultyTransport;
using now::net::SocketHub;
using now::net::SocketSpoke;
using now::net::Transport;
using now::sim::ShardRunResult;
using now::sim::ShardSpec;

struct Options {
  ShardSpec spec;
  FaultPlan faults;
  std::uint64_t fault_seed = 0xFA17ULL;
  std::size_t crash_shard = SIZE_MAX;  // SIZE_MAX = no crash
  std::size_t crash_at = 0;
  bool bench = false;
  std::string obs_dir;  // empty = telemetry off
  // worker mode
  std::uint16_t port = 0;
  std::size_t shard = 0;
};

/// Path of this process's telemetry file; label names the process row in
/// the merged Perfetto view.
std::string obs_path(const std::string& dir, const std::string& label) {
  return dir + "/OBS_" + label + "_pid" + std::to_string(::getpid()) +
         ".json";
}

template <typename T>
bool parse_flag(std::string_view arg, std::string_view prefix, T& out) {
  if (arg.substr(0, prefix.size()) != prefix) return false;
  const std::string value(arg.substr(prefix.size()));
  if constexpr (std::is_floating_point_v<T>) {
    out = static_cast<T>(std::stod(value));
  } else {
    out = static_cast<T>(std::stoull(value));
  }
  return true;
}

bool parse_str_flag(std::string_view arg, std::string_view prefix,
                    std::string& out) {
  if (arg.substr(0, prefix.size()) != prefix) return false;
  out = std::string(arg.substr(prefix.size()));
  return true;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (parse_flag(arg, "--shards=", o.spec.num_shards)) continue;
    if (parse_flag(arg, "--steps=", o.spec.steps)) continue;
    if (parse_flag(arg, "--ops=", o.spec.batch_ops)) continue;
    if (parse_flag(arg, "--n0=", o.spec.n0)) continue;
    if (parse_flag(arg, "--seed=", o.spec.seed)) continue;
    if (parse_flag(arg, "--byz=", o.spec.byz_fraction)) continue;
    if (parse_flag(arg, "--ckpt-every=", o.spec.checkpoint_every)) continue;
    if (parse_str_flag(arg, "--ckpt-dir=", o.spec.checkpoint_dir)) continue;
    if (parse_str_flag(arg, "--obs-dir=", o.obs_dir)) continue;
    if (parse_flag(arg, "--round-cap=", o.spec.round_cap)) continue;
    if (parse_flag(arg, "--drop=", o.faults.drop)) continue;
    if (parse_flag(arg, "--dup=", o.faults.duplicate)) continue;
    if (parse_flag(arg, "--delay=", o.faults.delay)) continue;
    if (parse_flag(arg, "--reorder=", o.faults.reorder)) continue;
    if (parse_flag(arg, "--partition=", o.faults.partition)) continue;
    if (parse_flag(arg, "--partition-rounds=", o.faults.partition_rounds)) {
      continue;
    }
    if (parse_flag(arg, "--fault-seed=", o.fault_seed)) continue;
    if (parse_flag(arg, "--crash-shard=", o.crash_shard)) continue;
    if (parse_flag(arg, "--crash-at=", o.crash_at)) continue;
    if (parse_flag(arg, "--port=", o.port)) continue;
    if (parse_flag(arg, "--shard=", o.shard)) continue;
    if (arg == "--bench") {
      o.bench = true;
      continue;
    }
    std::cerr << "unknown flag: " << arg << "\n";
    std::exit(2);
  }
  return o;
}

/// Command line for one worker process, reproducing the spec and faults.
std::vector<std::string> worker_args(const Options& o, std::uint16_t port,
                                     std::size_t shard, bool with_crash) {
  std::vector<std::string> args = {
      "/proc/self/exe",
      "worker",
      "--port=" + std::to_string(port),
      "--shard=" + std::to_string(shard),
      "--shards=" + std::to_string(o.spec.num_shards),
      "--steps=" + std::to_string(o.spec.steps),
      "--ops=" + std::to_string(o.spec.batch_ops),
      "--n0=" + std::to_string(o.spec.n0),
      "--seed=" + std::to_string(o.spec.seed),
      "--byz=" + std::to_string(o.spec.byz_fraction),
      "--round-cap=" + std::to_string(o.spec.round_cap),
      "--drop=" + std::to_string(o.faults.drop),
      "--dup=" + std::to_string(o.faults.duplicate),
      "--delay=" + std::to_string(o.faults.delay),
      "--reorder=" + std::to_string(o.faults.reorder),
      "--partition=" + std::to_string(o.faults.partition),
      "--partition-rounds=" + std::to_string(o.faults.partition_rounds),
      "--fault-seed=" + std::to_string(o.fault_seed),
  };
  if (!o.spec.checkpoint_dir.empty()) {
    args.push_back("--ckpt-dir=" + o.spec.checkpoint_dir);
    args.push_back("--ckpt-every=" + std::to_string(o.spec.checkpoint_every));
  }
  if (!o.obs_dir.empty()) {
    args.push_back("--obs-dir=" + o.obs_dir);
  }
  if (with_crash && o.crash_shard == shard && o.crash_at > 0) {
    args.push_back("--crash-at=" + std::to_string(o.crash_at));
  }
  return args;
}

pid_t spawn_worker(const Options& o, std::uint16_t port, std::size_t shard,
                   bool with_crash) {
  const auto args = worker_args(o, port, shard, with_crash);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "fork failed\n";
    std::exit(1);
  }
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed
  }
  return pid;
}

int run_worker_mode(const Options& o) {
  try {
    if (!o.obs_dir.empty()) now::obs::set_enabled(true);
    auto spoke = SocketSpoke::connect(o.port, o.shard);
    std::unique_ptr<FaultyTransport> faulty;
    Transport* transport = spoke.get();
    if (o.faults.any()) {
      faulty = std::make_unique<FaultyTransport>(*spoke, o.faults,
                                                 o.fault_seed);
      transport = faulty.get();
    }
    now::sim::run_worker(o.spec, o.shard, *transport,
                         o.crash_at > 0 ? o.crash_at : 0);
    if (!o.obs_dir.empty()) {
      const std::string label = "shard" + std::to_string(o.shard);
      now::obs::write_obs_file(obs_path(o.obs_dir, label), label);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "worker " << o.shard << ": " << e.what() << "\n";
    return 1;
  }
}

/// The multi-process deployment: hub + one forked worker per shard, with
/// crash respawn. Returns the merged result.
ShardRunResult run_multi_process(const Options& o, std::size_t* respawns) {
  auto hub = SocketHub::listen(o.spec.num_shards);
  std::map<std::size_t, pid_t> worker_pid;
  for (std::size_t s = 0; s < o.spec.num_shards; ++s) {
    worker_pid[s] = spawn_worker(o, hub->port(), s, /*with_crash=*/true);
  }
  hub->accept_initial();

  std::unique_ptr<FaultyTransport> faulty;
  Transport* transport = hub.get();
  if (o.faults.any()) {
    faulty =
        std::make_unique<FaultyTransport>(*hub, o.faults, o.fault_seed);
    transport = faulty.get();
  }

  const auto between_rounds = [&](bool finished) {
    for (const std::uint64_t dead : hub->drain_dead_processes()) {
      const auto shard = static_cast<std::size_t>(dead);
      int status = 0;
      if (worker_pid.count(shard) != 0) {
        (void)::waitpid(worker_pid[shard], &status, 0);
      }
      if (finished) continue;  // orderly end-of-run exits: nothing to do
      ++*respawns;
      // Respawn WITHOUT the crash flag: the replacement must recover from
      // its checkpoint and finish the run.
      worker_pid[shard] =
          spawn_worker(o, hub->port(), shard, /*with_crash=*/false);
    }
  };

  const ShardRunResult result =
      now::sim::run_hub(o.spec, *transport, *hub, between_rounds);

  for (auto& [shard, pid] : worker_pid) {
    int status = 0;
    (void)::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << "worker for shard " << shard
                << " exited abnormally (status " << status << ")\n";
    }
  }
  return result;
}

void print_result(const std::string& label, const ShardRunResult& r) {
  std::cout << "  " << label << ": digest=" << std::hex << r.run_digest
            << std::dec << " steps=" << r.steps_completed
            << " rounds=" << r.engine_rounds
            << " nodes=" << r.final_stats.num_nodes
            << " clusters=" << r.final_stats.num_clusters
            << " messages=" << r.final_stats.messages << "\n";
}

int run_compare_mode(Options o) {
  // Crash recovery needs checkpoints: default them on when a crash is
  // requested without explicit checkpoint flags.
  const bool crash = o.crash_shard != SIZE_MAX && o.crash_at > 0;
  if (crash && o.spec.checkpoint_dir.empty()) {
    o.spec.checkpoint_dir = "now_shard_ckpt";
    if (o.spec.checkpoint_every == 0) o.spec.checkpoint_every = 2;
  }
  if (!o.spec.checkpoint_dir.empty()) {
    std::filesystem::remove_all(o.spec.checkpoint_dir);
    std::filesystem::create_directories(o.spec.checkpoint_dir);
  }

  // Reference: single process, fault free, no checkpoints.
  ShardSpec reference_spec = o.spec;
  reference_spec.checkpoint_every = 0;
  reference_spec.checkpoint_dir.clear();
  const ShardRunResult reference =
      now::sim::run_single_process(reference_spec);
  print_result("single-process           ", reference);

  // Single process under the fault plan: the digest chain must be immune
  // to message-level faults (the protocol retries; the state trajectory is
  // untouched).
  bool ok = true;
  ShardRunResult faulted = reference;
  if (o.faults.any()) {
    faulted = now::sim::run_single_process(reference_spec, &o.faults,
                                           o.fault_seed);
    print_result("single-process + faults  ", faulted);
    ok = ok && faulted.run_digest == reference.run_digest;
  }

  // Multi process over sockets, same fault plan, optional crash + respawn.
  // Telemetry covers exactly this leg in the hub process (the workers
  // record their whole lifetime), so the hub's trace is the coordinator's
  // view of the socket run.
  std::size_t respawns = 0;
  if (!o.obs_dir.empty()) {
    std::filesystem::create_directories(o.obs_dir);
    now::obs::set_enabled(true);
  }
  ShardRunResult multi;
  const double multi_wall_ns = now::bench::time_ns(
      [&] { multi = run_multi_process(o, &respawns); });
  if (!o.obs_dir.empty()) {
    now::obs::set_enabled(false);
    now::obs::write_obs_file(obs_path(o.obs_dir, "hub"), "hub");
  }
  print_result("multi-process            ", multi);
  if (crash) {
    std::cout << "  crash: shard " << o.crash_shard << " after step "
              << o.crash_at << ", respawns=" << respawns << "\n";
  }
  ok = ok && multi.run_digest == reference.run_digest;
  ok = ok && multi.steps_completed == o.spec.steps;

  std::cout << (ok ? "REPRODUCED" : "DIVERGED")
            << ": multi-process run digest "
            << (ok ? "matches" : "does NOT match")
            << " the single-process reference\n";

  if (o.bench) {
    now::bench::JsonEmitter json("multiproc");
    const auto n = static_cast<std::uint64_t>(o.spec.num_shards);
    // u64 digests are exact in doubles only up to 2^53: split lo/hi 32.
    const auto lo = [](std::uint64_t v) {
      return static_cast<double>(v & 0xFFFFFFFFULL);
    };
    const auto hi = [](std::uint64_t v) {
      return static_cast<double>(v >> 32);
    };
    json.add_scalar("single_digest_lo", n, lo(reference.run_digest));
    json.add_scalar("single_digest_hi", n, hi(reference.run_digest));
    json.add_scalar("faulty_digest_lo", n, lo(faulted.run_digest));
    json.add_scalar("faulty_digest_hi", n, hi(faulted.run_digest));
    json.add_scalar("multi_digest_lo", n, lo(multi.run_digest));
    json.add_scalar("multi_digest_hi", n, hi(multi.run_digest));
    json.add_scalar("respawns", n, static_cast<double>(respawns));
    json.add_scalar("verdict", n, ok ? 1.0 : 0.0);
    json.add("merged", multi.final_stats.num_nodes,
             static_cast<double>(multi.final_stats.messages),
             static_cast<double>(multi.final_stats.rounds), multi_wall_ns);
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: now_shard compare|worker [flags]\n";
    return 2;
  }
  const std::string_view mode = argv[1];
  const Options o = parse(argc, argv);
  if (mode == "worker") return run_worker_mode(o);
  if (mode == "compare") return run_compare_mode(o);
  std::cerr << "unknown mode: " << mode << "\n";
  return 2;
}
