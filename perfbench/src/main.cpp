// nowbench — end-to-end benchmark program of the NOW reproduction.
//
//   nowbench <churn_batch|attack_seq|shard_socket> --seed N --seconds S
//            --trace 0|1 --work-dir DIR [--expect-digest HEX]
//
// Runs one closed-loop workload for S seconds and prints, as its last line
// of standard output, {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics of a separate
// traced run with --trace 1. Exits 1 if any output check failed.
// perfbench/run.py builds this binary and is the command to run.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "bench_util.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nowbench: %s\nusage: nowbench <churn_batch|attack_seq|"
               "shard_socket> --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--expect-digest HEX]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == "worker") {
    return perfbench::shard_socket_worker(argc, argv);
  }
  if (argc < 2) usage("missing workload");
  perfbench::RunConfig config;
  config.workload = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) usage("flag without a value");
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::string_view(value) == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--expect-digest") {
      config.have_expected_digest = true;
      config.expected_digest = std::strtoull(value, nullptr, 16);
    } else {
      usage("unknown flag");
    }
  }
  if (config.seconds <= 0) usage("--seconds must be positive");
  if (config.work_dir.empty()) usage("--work-dir is required");
  std::filesystem::create_directories(config.work_dir);

  // A hung peer must not hang the benchmark: past this the process dies
  // (SIGALRM), its sockets close, and the workers exit on EOF.
  ::alarm(static_cast<unsigned>(config.seconds) + 150);

  perfbench::Result result;
  try {
    if (config.workload == "churn_batch") {
      perfbench::run_churn_batch(config, result);
    } else if (config.workload == "attack_seq") {
      perfbench::run_attack_seq(config, result);
    } else if (config.workload == "shard_socket") {
      perfbench::run_shard_socket(config, result);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    result.wrong(std::string("workload threw: ") + e.what());
  }
  std::printf("%s\n", result.json().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
