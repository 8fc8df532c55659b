#!/usr/bin/env bash
# Docs-consistency gate, two checks:
#   * every `bench_<name>` mentioned in README.md or EXPERIMENTS.md must
#     exist as bench/bench_<name>.cpp (CMake globs that directory, so file
#     existence == build target existence);
#   * every `NowSystem::<name>` and `step_parallel*` token in README.md,
#     DESIGN.md or EXPERIMENTS.md must be declared in src/core/now.hpp
#     (outside comments), so the docs cannot name a deleted entry point.
# Fails the CI docs job when documentation references a bench or API that
# was renamed or removed.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for doc in README.md EXPERIMENTS.md; do
  [ -f "$doc" ] || { echo "missing $doc" >&2; status=1; continue; }
  # Collect bench_<name> tokens, stripping punctuation and the .cpp/.json
  # artifact suffixes (BENCH_*.json names are checked via their bench).
  # `|| true`: a doc with zero bench references is fine, not a grep failure.
  refs=$(grep -oE 'bench_[a-z0-9_]+' "$doc" | sort -u || true)
  for ref in $refs; do
    if [ ! -f "bench/${ref}.cpp" ] && [ ! -f "bench/${ref}.hpp" ]; then
      echo "$doc references '$ref' but bench/${ref}.{cpp,hpp} does not" \
           "exist" >&2
      status=1
    fi
  done
done

api=src/core/now.hpp
declared=$(grep -vE '^[[:space:]]*//' "$api")
api_refs='NowSystem::[A-Za-z_][A-Za-z0-9_]*|step_parallel[A-Za-z0-9_]*'
for doc in README.md DESIGN.md EXPERIMENTS.md; do
  [ -f "$doc" ] || { echo "missing $doc" >&2; status=1; continue; }
  names=$(grep -oE "$api_refs" "$doc" | sed 's/^NowSystem:://' | sort -u \
            || true)
  for name in $names; do
    if ! grep -qE "(^|[^A-Za-z0-9_])${name}\(" <<<"$declared"; then
      echo "$doc references '$name' but $api does not declare it" >&2
      status=1
    fi
  done
done

if [ "$status" -eq 0 ]; then
  echo "docs check passed: every referenced bench target and NowSystem" \
       "member exists"
fi
exit "$status"
