#!/usr/bin/env bash
# Builds and runs the host wall-clock benchmark from a checkout of the repo.
#
#   bash bench/wall/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bash bench/wall/run.sh --smoke
#   bash bench/wall/run.sh --record-expected
#   bash bench/wall/run.sh compare PARENT_DIR CHANGE_DIR
#
# Configures the repo root as a Release build in build-wall/, builds only the
# tlm_* libraries (the tlm_service target pulls in the rest), builds
# bench/wall/ against them, then runs wall_bench with the arguments given.
# Build output goes to stderr; the last stdout line is the run's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

if [[ "${1:-}" == compare ]]; then
  shift
  exec python3 "$here/compare.py" --benchmark "$root/BENCHMARK.json" "$@"
fi

build="$root/build-wall"
jobs="$(nproc)"
if (( jobs > 4 )); then jobs=4; fi

{
  cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target tlm_service -j "$jobs"
  cmake -S "$here" -B "$build/wall" -DCMAKE_BUILD_TYPE=Release \
    -DTLM_SOURCE_DIR="$root" -DTLM_LIB_DIR="$build"
  cmake --build "$build/wall" -j "$jobs"
} >&2

commit=unknown
if [[ -e "$root/.git" ]]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
  if [[ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]]; then
    commit="$commit-dirty"
  fi
fi

exec "$build/wall/wall_bench" --root "$root" --commit "$commit" "$@"
