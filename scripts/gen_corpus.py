#!/usr/bin/env python3
"""Scenario-corpus driver: (re)generate the checked-in trace corpus under
bench/corpus/ via the `now_trace` tool (tools/now_trace.cpp).

The corpus is a set of seeded randomized adversarial scenarios — each a
replayable binary trace (sim/trace.hpp) — with failing scenarios shrunk to
minimal reproducers by the generator (sim/corpus.hpp). A MANIFEST.tsv
names every case with its trace format, failure kind and coverage
signature. CI's `corpus` job replays every checked-in trace and fails
on invariant-sample drift, so any behavioral change to the
engine that alters a recorded trajectory is caught exactly like a
bench-fidelity regression; `now_trace recheck` additionally verifies that
failing reproducers still fail with their recorded failure kind.

Usage:
  scripts/gen_corpus.py --build-dir build                 # regenerate
  scripts/gen_corpus.py --build-dir build --verify-only   # replay+recheck
  scripts/gen_corpus.py --build-dir build --promote DIR   # promote fleet
                                                          # reproducers

Promotion (the nightly flow): the coverage fleet (`now_trace fleet
--shrink`) drops minimal reproducers into a staging directory; --promote
copies any trace+manifest rows from that directory whose case name is not
already in the checked-in corpus, re-verifies them, and appends the rows
to bench/corpus/MANIFEST.tsv. The resulting diff is PR-able as-is.

Regeneration is deterministic in --seed, so re-running with the same seed
and the same engine produces byte-identical traces. After an INTENTIONAL
behavioral change, regenerate and commit the new traces together with the
change (the same policy as the bench baseline). The reader accepts only
the current trace format version, so a format bump (e.g. a snapshot
layout change, which the embedded checkpoints carry) requires
re-recording every checked-in trace from its header config through
`run_corpus_scenario` — same trajectories, new embedded bytes — and
setting the manifest's `format` column.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
from pathlib import Path


def read_manifest(path: Path) -> tuple[str, list[list[str]]]:
    """Returns (header line, rows as column lists) of a MANIFEST.tsv."""
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty")
    return lines[0], [line.split("\t") for line in lines[1:] if line]


def verify(tool: Path, out: Path) -> int:
    traces = sorted(out.glob("*.trace"))
    if not traces:
        print(f"error: no traces under {out}", file=sys.stderr)
        return 1
    replay = subprocess.run([str(tool), "replay"] +
                            [str(t) for t in traces]).returncode
    if replay != 0:
        return replay
    if (out / "MANIFEST.tsv").exists():
        return subprocess.run([str(tool), "recheck", str(out)]).returncode
    return 0


def promote(tool: Path, out: Path, staging: Path) -> int:
    """Copies staged reproducers not yet in the corpus, verifies, appends
    their manifest rows."""
    staged_manifest = staging / "MANIFEST.tsv"
    corpus_manifest = out / "MANIFEST.tsv"
    if not staged_manifest.exists():
        print(f"error: no manifest at {staged_manifest}", file=sys.stderr)
        return 1
    header, staged_rows = read_manifest(staged_manifest)
    if corpus_manifest.exists():
        _, corpus_rows = read_manifest(corpus_manifest)
        known = {row[0] for row in corpus_rows}
    else:
        corpus_manifest.write_text(header + "\n")
        known = set()

    promoted = []
    for row in staged_rows:
        name, trace_file = row[0], row[1]
        if name in known:
            continue
        src = staging / trace_file
        if not src.exists():
            print(f"error: manifest names missing trace {src}",
                  file=sys.stderr)
            return 1
        replay = subprocess.run([str(tool), "replay", str(src)])
        if replay.returncode != 0:
            print(f"error: staged trace {src} does not replay clean — "
                  f"not promoting", file=sys.stderr)
            return 1
        shutil.copy2(src, out / trace_file)
        with corpus_manifest.open("a") as mf:
            mf.write("\t".join(row) + "\n")
        promoted.append(name)

    if not promoted:
        print("nothing to promote (all staged cases already in corpus)")
        return 0
    print(f"promoted {len(promoted)} reproducer(s): {', '.join(promoted)}")
    # The promoted set must survive the reproducer-rot gate it will be
    # held to nightly.
    return subprocess.run([str(tool), "recheck", str(out)]).returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="directory containing the now_trace binary")
    parser.add_argument("--out", default="bench/corpus",
                        help="corpus directory (checked in)")
    parser.add_argument("--count", type=int, default=6,
                        help="number of scenarios to generate")
    parser.add_argument("--seed", type=int, default=20260726,
                        help="master seed (generation is deterministic)")
    parser.add_argument("--verify-only", action="store_true",
                        help="replay + recheck the existing corpus instead "
                             "of regenerating")
    parser.add_argument("--promote", metavar="DIR",
                        help="promote fleet reproducers from a staging "
                             "directory into the corpus")
    args = parser.parse_args()

    tool = Path(args.build_dir) / "now_trace"
    if not tool.exists():
        print(f"error: {tool} not found — build the `now_trace` target "
              f"first (cmake --build {args.build_dir} --target now_trace)",
              file=sys.stderr)
        return 1

    out = Path(args.out)
    if args.verify_only:
        return verify(tool, out)
    if args.promote:
        return promote(tool, out, Path(args.promote))

    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("*.trace"):
        stale.unlink()
    gen = subprocess.run([str(tool), "gen", f"--out={out}",
                          f"--count={args.count}", f"--seed={args.seed}"])
    if gen.returncode != 0:
        return gen.returncode
    print(f"\nreplay-verifying the generated corpus...")
    return verify(tool, out)


if __name__ == "__main__":
    sys.exit(main())
