#!/usr/bin/env bash
# Runs the CI legs of .github/workflows/ci.yml locally, one after another:
# each leg is configure + build + the same ctest selection CI makes (the leg
# table heads tests/CMakeLists.txt).
#
#   scripts/ci_local.sh           # release + asan per compiler, then tsan
#   scripts/ci_local.sh --quick   # the release leg of the first compiler only
#   scripts/ci_local.sh --soak    # add the nightly soak leg
#   scripts/ci_local.sh --stress  # only the nightly stress leg: tier-1 three
#                                 # times over under one CPU hog per core
#
# Compilers that are not installed are skipped. Every leg runs even if an
# earlier one failed; a PASS/FAIL summary follows, and the exit status is
# nonzero if any leg failed.

set -uo pipefail
cd "$(dirname "$0")/.."

names=()
codes=()
hogs=0     # busy loops the next leg runs alongside its ctest call
hog_pids=()

stop_hogs() {
  [ "${#hog_pids[@]}" -eq 0 ] || kill "${hog_pids[@]}" 2>/dev/null
  hog_pids=()
}
trap stop_hogs EXIT

leg() { # leg <name> <preset> <cc> <cxx> <build target> <ctest selection>...
  local name=$1 preset=$2 cc=$3 cxx=$4 target=$5 status=0 i
  shift 5
  local dir="build-${preset}-${cc}"
  printf '\n== leg: %s ==\n' "$name"
  CC=$cc CXX=$cxx cmake --preset "$preset" -B "$dir" >/dev/null &&
    cmake --build "$dir" -j "$(nproc)" --target "$target" || status=$?
  if [ "$status" -eq 0 ]; then
    for ((i = 0; i < hogs; i++)); do
      while :; do :; done &
      hog_pids+=("$!")
    done
    (cd "$dir" && TSAN_OPTIONS=halt_on_error=1 \
      ctest --output-on-failure -j "$(nproc)" "$@") || status=$?
    stop_hogs
  fi
  codes+=("$status")
  names+=("$name")
}

quick=0
soak=0
stress=0
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    --soak) soak=1 ;;
    --stress) stress=1 ;;
    *) echo "ci_local: unknown option '$arg'" >&2; exit 2 ;;
  esac
done

compilers=()
command -v gcc >/dev/null 2>&1 && compilers+=("gcc:g++")
command -v clang >/dev/null 2>&1 && compilers+=("clang:clang++")
if [ "${#compilers[@]}" -eq 0 ]; then
  echo "ci_local: no supported compiler (gcc or clang) found" >&2
  exit 1
fi
command -v clang >/dev/null 2>&1 || echo "ci_local: clang not installed, skipping clang legs"

IFS=: read -r cc cxx <<<"${compilers[0]}"
if [ "$stress" -eq 1 ]; then
  # No tier-1 outcome may depend on host timing. verify.* stays out until
  # its perturbation entries stop running to the iteration limit.
  hogs=$(nproc)
  leg "stress/${cc}" release "$cc" "$cxx" all -LE verify --repeat until-fail:3
  hogs=0
elif [ "$quick" -eq 1 ]; then
  leg "release/${cc}" release "$cc" "$cxx" all -C perf
else
  for entry in "${compilers[@]}"; do
    IFS=: read -r c cx <<<"$entry"
    leg "release/${c}" release "$c" "$cx" all -C perf
    leg "asan/${c}" asan "$c" "$cx" all -C perf -LE golden
  done
  leg "tsan/${cc}" tsan "$cc" "$cxx" tsan_suites -L tsan
fi
if [ "$soak" -eq 1 ]; then
  leg "soak/${cc}" release "$cc" "$cxx" all -C soak -L soak
fi

printf '\n== ci_local summary ==\n'
failed=0
for i in "${!names[@]}"; do
  if [ "${codes[$i]}" -eq 0 ]; then
    printf '  PASS  %s\n' "${names[$i]}"
  else
    printf '  FAIL  %s (exit %s)\n' "${names[$i]}" "${codes[$i]}"
    failed=1
  fi
done
if [ "$failed" -ne 0 ]; then
  echo "ci_local: FAILED"
  exit 1
fi
echo "ci_local: all legs PASS"
