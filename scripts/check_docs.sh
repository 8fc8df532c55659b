#!/usr/bin/env bash
# Docs-consistency gate, four checks:
#   * every `bench_<name>` mentioned in README.md or EXPERIMENTS.md must
#     exist as bench/bench_<name>.cpp (CMake globs that directory, so file
#     existence == build target existence);
#   * every `NowSystem::<name>` and `step_parallel*` token in README.md,
#     DESIGN.md or EXPERIMENTS.md must be declared in src/core/now.hpp,
#     and every `PlanCache::<name>` in src/core/plan_cache.hpp (outside
#     comments), so the docs cannot name a deleted entry point or member;
#   * every repo path those three docs name under src/, tools/, tests/,
#     scripts/ or bench/ must exist (brace lists expanded; a glob needs its
#     directory; a tool or bench named without its .cpp needs the source);
#   * every `ScenarioConfig::<field>` (and each name of a
#     `ScenarioConfig::{a, b}` list) must be a field of the ScenarioConfig
#     struct in src/sim/scenario.hpp.
# Fails the CI docs job when documentation references a bench, API, path
# or config field that was renamed or removed.
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

# check_members HEADER REFS PREFIX DECL: every REFS token in the docs,
# PREFIX stripped, must appear in HEADER (outside comments) followed by
# the DECL pattern.
check_members() {
  local header=$1 refs=$2 prefix=$3 decl=$4 declared doc names name
  declared=$(grep -vE '^[[:space:]]*//' "$header")
  for doc in README.md DESIGN.md EXPERIMENTS.md; do
    [ -f "$doc" ] || { echo "missing $doc" >&2; status=1; continue; }
    names=$(grep -oE "$refs" "$doc" | sed "s/^${prefix}//" | sort -u \
              || true)
    for name in $names; do
      if ! grep -qE "(^|[^A-Za-z0-9_])${name}${decl}" <<<"$declared"; then
        echo "$doc references '$name' but $header does not declare it" >&2
        status=1
      fi
    done
  done
}
# NowSystem members and step_parallel* must be declared as functions;
# PlanCache members may be functions or fields.
check_members src/core/now.hpp \
  'NowSystem::[A-Za-z_][A-Za-z0-9_]*|step_parallel[A-Za-z0-9_]*' \
  'NowSystem::' '\('
check_members src/core/plan_cache.hpp 'PlanCache::[A-Za-z_][A-Za-z0-9_]*' \
  'PlanCache::' '([^A-Za-z0-9_]|$)'

# path_exists PATH: the path exists, or names a target built from
# PATH.cpp; a glob only needs the directory before its first wildcard.
path_exists() {
  local path=$1
  if [[ "$path" == *[*?]* ]]; then
    path=${path%%[*?]*}
    [ -d "${path%/*}" ]
    return
  fi
  [ -e "$path" ] || [ -e "${path}.cpp" ]
}
for doc in README.md DESIGN.md EXPERIMENTS.md; do
  [ -f "$doc" ] || continue
  # A path starts a word (not inside build/ or perfbench/ paths) and may
  # carry one {a,b} list; a sentence's trailing period is not part of it.
  paths=$(grep -oE '(^|[^A-Za-z0-9_./-])(src|tools|tests|scripts|bench)/([A-Za-z0-9_.*?/-]|\{[A-Za-z0-9_.,]*\})*' \
            "$doc" | sed -E 's/^[^a-z]//; s/\.+$//' | sort -u || true)
  for path in $paths; do
    expanded=$path
    if [[ "$path" =~ ^([^{]*)\{([^}]*)\}(.*)$ ]]; then
      expanded=""
      IFS=, read -ra alternatives <<<"${BASH_REMATCH[2]}"
      for alt in "${alternatives[@]}"; do
        expanded+="${BASH_REMATCH[1]}${alt}${BASH_REMATCH[3]} "
      done
    fi
    for candidate in $expanded; do
      if ! path_exists "$candidate"; then
        echo "$doc names path '$candidate' but it does not exist" >&2
        status=1
      fi
    done
  done
done

# ScenarioConfig fields: the struct body, comments stripped.
config_fields=$(sed -n '/^struct ScenarioConfig {/,/^};/p' \
                  src/sim/scenario.hpp | sed -E 's|//.*||')
for doc in README.md DESIGN.md EXPERIMENTS.md; do
  [ -f "$doc" ] || continue
  # Join lines so a brace list wrapped across lines is one reference.
  refs=$(tr '\n' ' ' <"$doc" |
           grep -oE 'ScenarioConfig::(\{[^}]*\}|[A-Za-z_][A-Za-z0-9_]*)' |
           sed -E 's/^ScenarioConfig:://; s/[{}]//g' | tr ',' '\n' |
           tr -d ' `' | sort -u || true)
  for field in $refs; do
    if ! grep -qE "(^|[^A-Za-z0-9_])${field}[[:space:]]*(=|;|\{)" \
           <<<"$config_fields"; then
      echo "$doc references ScenarioConfig::$field but" \
           "src/sim/scenario.hpp does not declare it" >&2
      status=1
    fi
  done
done

if [ "$status" -eq 0 ]; then
  echo "docs check passed: every referenced bench target, NowSystem and" \
       "PlanCache member, repo path and ScenarioConfig field exists"
fi
exit "$status"
