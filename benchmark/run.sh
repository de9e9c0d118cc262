#!/usr/bin/env bash
# bgpbench entry point. Builds the benchmark (the bgpsim libraries, the
# `bgpsim` CLI and the bgpbench driver, Release) into benchmark/build, then:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is the JSON result
#   benchmark/run.sh --seed N --out DIR [--seconds S]
#       one traced run of every workload, each in its own process: the
#       untraced load phases, then the traced layer pass. Prints every
#       metric as `workload metric value unit` and writes, per workload,
#       DIR/<workload>.json (end-to-end result line), DIR/<workload>.trace.json
#       (per-layer result line), DIR/<workload>.log (everything printed) and
#       DIR/<workload>/ (spans.json, layers.json); exits non-zero if any
#       correctness check failed
#   benchmark/run.sh compare DIR_A DIR_B
#
# Build output goes to benchmark/build/build.log; BGPBENCH_BUILD_DIR moves
# the build directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${BGPBENCH_BUILD_DIR:-$here/build}"

mkdir -p "$build"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$(nproc)" --target bgpbench; } >"$build/build.log" 2>&1; then
  echo "bgpbench: build failed; see $build/build.log" >&2
  tail -n 20 "$build/build.log" >&2
  exit 1
fi
bench="$build/bgpbench"

if [[ "${1:-}" == "compare" ]]; then
  shift
  exec "$bench" compare "$@"
fi

seed=2014
seconds=15
out=""
workload=""
trace=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --workload) workload="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    *) echo "bgpbench: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [[ -n "$workload" ]]; then
  args=(run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace")
  if [[ -n "$out" ]]; then args+=(--out "$out"); fi
  exec "$bench" "${args[@]}"
fi

if [[ -z "$out" ]]; then
  echo "usage: benchmark/run.sh --seed N --out DIR [--seconds S]" >&2
  exit 2
fi
mkdir -p "$out"
status=0
for w in attack-mix attack-detect attack-small campaign sweep-cold; do
  if ! "$bench" run --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
      --out "$out/$w" | tee "$out/$w.log" | grep -v '^{'; then
    status=1
  fi
  # .trace.json, not .json: compare reads only the end-to-end files.
  tail -n 1 "$out/$w.log" >"$out/$w.trace.json"
  if ! cp "$out/$w/e2e.json" "$out/$w.json" || ! grep -q '"correct":true' "$out/$w.json"; then
    echo "bgpbench: $w failed its correctness checks" >&2
    status=1
  fi
done
exit "$status"
