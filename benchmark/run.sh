#!/usr/bin/env bash
# Configures and builds the standalone benchmark project, then runs one
# workload, or each workload in turn with --workload all. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload fig7-sweep --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --workload all --seed 1 --seconds 10 --trace 1
#
# Build output goes to stderr, so the last line of stdout is the result.
# A traced run writes its Chrome trace to .bench_build/trace-<workload>.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "error: $root holds no sealdl sources to benchmark" >&2
  exit 2
fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target sealdl-bench -j 4 >&2

workload=""
args=()
while (($#)); do
  if [[ "$1" == "--workload" && $# -ge 2 ]]; then
    workload="$2"
    shift 2
  else
    args+=("$1")
    shift
  fi
done

if [[ "$workload" == "all" ]]; then
  workloads=(fig7-sweep serve-capacity scheme-audit profiled-serial)
else
  workloads=("$workload")
fi
for w in "${workloads[@]}"; do
  "$build/sealdl-bench" --workload "$w" --trace-out "$build/trace-$w.json" \
      ${args[@]+"${args[@]}"}
done
