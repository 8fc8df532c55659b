#!/usr/bin/env python3
"""End-to-end benchmark of the NOW reproduction.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the protocol library and the
benchmark program from source into .bench_build/ (incremental after the
first run), runs one closed-loop workload for S seconds, and prints as the last line of standard
output one JSON object {"correct", "attempted", "failed", "metrics"}: every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer metric
with --trace 1 (a per-layer metric that does not apply to the workload reads
0). Progress, the per-layer table and failed checks go to standard error.
Exits non-zero, without a result line, if the sources or the build are
missing, and with the result line if an output check failed.

Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "nowbench")
WORKLOADS = ("churn_batch", "attack_seq", "shard_socket")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "now.hpp")):
        fail("protocol sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found")
    with open(path) as f:
        return json.load(f)


def shape(result, spec, trace):
    """Keeps exactly the metrics the contract asks for, in its order."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                print(f"perfbench: missing end-to-end metric {m['name']}",
                      file=sys.stderr)
                result["correct"] = False
            value = 0.0
        else:
            if got["unit"] != m["unit"]:
                fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
            value = got["value"]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def keep_spans(work_dir, args):
    """Moves a traced run's span file to .bench_build/traces/."""
    src = os.path.join(work_dir, f"spans_{args.workload}.json")
    if os.path.isfile(src):
        dst_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(dst_dir, exist_ok=True)
        shutil.move(src, os.path.join(
            dst_dir, f"{args.workload}-seed{args.seed}.json"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-digest", default=None,
                        help="shard_socket: expected run digest (hex) in "
                             "place of the single-process reference")
    args = parser.parse_args(argv)

    spec = load_spec()
    build()
    work_dir = os.path.join(ROOT, ".bench_build", "work",
                            f"{args.workload}-{os.getpid()}")
    cmd = [BINARY, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.expect_digest is not None:
        cmd += ["--expect-digest", args.expect_digest]
    # Own process group, so a timeout takes the workers down with the hub.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        keep_spans(work_dir, args)
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = shape(json.loads(lines[-1]), spec, args.trace == 1)
    if proc.returncode != 0:
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
