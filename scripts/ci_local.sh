#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: the same preset x compiler
# matrix, run sequentially. Compilers that are not installed are skipped
# with a notice (the hosted runners install both gcc and clang; a dev box
# often has only one).
#
#   scripts/ci_local.sh           # full matrix + tsan + conformance + smoke
#   scripts/ci_local.sh --quick   # release/default-compiler leg only
#   scripts/ci_local.sh --soak    # add the full 10k-job service soak leg
#
# Every leg runs to completion even if an earlier one failed; the script
# prints a per-leg PASS/FAIL summary and exits nonzero if any leg failed.
# (Each leg executes as a child `bash "$0" --leg ...` process with its own
# `set -e` — errexit is unreliable inside functions called from condition
# contexts, which is exactly how per-leg status has to be collected, so
# process isolation is the only way a leg's failure is neither lost nor
# fatal to the matrix.)

set -euo pipefail
cd "$(dirname "$0")/.."

note() { printf '\n== %s ==\n' "$*"; }

run_leg() { # run_leg <preset> <cc> <cxx>
  local preset=$1 cc=$2 cxx=$3
  local build_dir="build-${preset}-${cc}"
  note "leg: ${preset} / ${cc}"
  CC=$cc CXX=$cxx cmake --preset "$preset" -B "$build_dir" >/dev/null
  cmake --build "$build_dir" -j "$(nproc)"
  local ctest_args=(--output-on-failure -j "$(nproc)")
  # Instrumented legs skip the golden-CSV regression label, as in CI:
  # the release legs cover it, and the full-size benches are slow under
  # sanitizer instrumentation.
  [ "$preset" = "asan" ] && ctest_args+=(-LE golden)
  (cd "$build_dir" && ctest "${ctest_args[@]}")

  note "conformance: tl_verify (${preset} / ${cc})"
  "./$build_dir/tools/tl_verify" \
    --golden verify/golden/reference.csv \
    --json="verify-${preset}-${cc}.json"

  note "distributed conformance: tl_verify --ranks 4 (${preset} / ${cc})"
  "./$build_dir/tools/tl_verify" --ranks 4 \
    --json="verify-dist-${preset}-${cc}.json"

  note "bench smoke: fig8 (${preset} / ${cc})"
  mkdir -p "bench-smoke-${preset}-${cc}"
  (cd "bench-smoke-${preset}-${cc}" && "../$build_dir/bench/bench_fig8_cpu" --smoke >/dev/null)
  echo "smoke CSV: bench-smoke-${preset}-${cc}/fig8_cpu.csv"

  note "fusion gates: bench_fusion --smoke (${preset} / ${cc})"
  (cd "bench-smoke-${preset}-${cc}" && "../$build_dir/bench/bench_fusion" --smoke)

  note "overlap gates: bench_fig13_scaling --smoke (${preset} / ${cc})"
  # Real decomposed solves, blocking vs overlapped; the bench exits nonzero
  # if overlap is ever slower than blocking. Writes BENCH_overlap.json.
  (cd "bench-smoke-${preset}-${cc}" && "../$build_dir/bench/bench_fig13_scaling" --smoke >/dev/null)
  echo "overlap JSON: bench-smoke-${preset}-${cc}/BENCH_overlap.json"

  note "service soak smoke: bench_service --smoke (${preset} / ${cc})"
  # 1k mixed-tenant jobs through the SolveService; the bench exits nonzero
  # on a fairness-bound breach or any service-vs-standalone checksum
  # mismatch, and the artifact is regression-checked against the committed
  # baseline (structural counts exact, wall clock with a generous slack).
  (cd "bench-smoke-${preset}-${cc}" && "../$build_dir/bench/bench_service" --smoke >/dev/null)
  "./$build_dir/tools/tl_report" \
    --check "bench-smoke-${preset}-${cc}/BENCH_service.json" \
    --baseline=BENCH_service.json --rel-tol=3.0

  note "elastic gates: bench_elastic --smoke (${preset} / ${cc})"
  # Weighted heterogeneous split beats equal, seeded lossy schedules survive
  # bit-identically, kill-and-resume transitions are bit-identical; the
  # artifact is fully deterministic (simulated clock) and checked exactly.
  (cd "bench-smoke-${preset}-${cc}" && "../$build_dir/bench/bench_elastic" --smoke >/dev/null)
  "./$build_dir/tools/tl_report" \
    --check "bench-smoke-${preset}-${cc}/BENCH_elastic.json" \
    --baseline=BENCH_elastic.json

  note "comm corruption detection: tl_verify --perturb (${preset} / ${cc})"
  # The detector's negative control: a run with in-flight comm corruption
  # must FAIL conformance. A passing perturbed run fails this leg.
  for target in halo_payload allreduce; do
    if "./$build_dir/tools/tl_verify" --ranks 2 --nx 32 \
        --perturb "$target" >/dev/null; then
      echo "perturbed $target run passed conformance — detector broken" >&2
      exit 1
    fi
  done

  note "run-report regression gate: tl_report --check (${preset} / ${cc})"
  # The canonical deterministic run report, regenerated and checked against
  # the committed baseline (exact counts, 10% slower-only time tolerance).
  "./$build_dir/examples/quickstart" \
    --nx 96 --solver cg --model omp3 --device cpu --ranks 4 \
    --report="bench-smoke-${preset}-${cc}/run_report.json" >/dev/null
  "./$build_dir/tools/tl_report" \
    --check "bench-smoke-${preset}-${cc}/run_report.json" \
    --baseline=BENCH_report.json

  note "auto-tuning gates: tl_plan fit --check + bench_plan (${preset} / ${cc})"
  # Refit the committed measurement grids, check the catalog against the
  # committed golden, then the planner-regret gate: known-fastest picks per
  # grid cell, bounded aggregate regret, artifact vs committed BENCH_plan.json.
  "./$build_dir/tools/tl_plan" fit \
    fig8_cpu.csv fig9_gpu.csv fig11_meshsweep.csv fig13_scaling.csv \
    BENCH_report.json BENCH_fusion.json BENCH_overlap.json \
    --out="bench-smoke-${preset}-${cc}/models.json" \
    --check=verify/golden/models.json >/dev/null
  "./$build_dir/bench/bench_plan" \
    --report="bench-smoke-${preset}-${cc}/BENCH_plan.json" >/dev/null
  "./$build_dir/tools/tl_report" \
    --check "bench-smoke-${preset}-${cc}/BENCH_plan.json" \
    --baseline=BENCH_plan.json
}

run_tsan() { # run_tsan <cc> <cxx>
  local cc=$1 cxx=$2
  local build_dir="build-tsan-${cc}"
  note "leg: tsan / ${cc} (threading suites)"
  CC=$cc CXX=$cxx cmake --preset tsan -B "$build_dir" >/dev/null
  cmake --build "$build_dir" -j "$(nproc)" \
    --target tests_models tests_fusion tests_isa tests_ports tests_verify tests_comm tests_dist tests_regions tests_telemetry tests_service tests_elastic tests_tune
  TSAN_OPTIONS=halt_on_error=1 "./$build_dir/tests/tests_models"
  TSAN_OPTIONS=halt_on_error=1 "./$build_dir/tests/tests_fusion"
  TSAN_OPTIONS=halt_on_error=1 "./$build_dir/tests/tests_isa"
  TSAN_OPTIONS=halt_on_error=1 "./$build_dir/tests/tests_ports"
  TSAN_OPTIONS=halt_on_error=1 "./$build_dir/tests/tests_verify"
  TSAN_OPTIONS=halt_on_error=1 "./$build_dir/tests/tests_comm"
  TSAN_OPTIONS=halt_on_error=1 "./$build_dir/tests/tests_dist"
  TSAN_OPTIONS=halt_on_error=1 "./$build_dir/tests/tests_regions"
  TSAN_OPTIONS=halt_on_error=1 "./$build_dir/tests/tests_telemetry"
  TSAN_OPTIONS=halt_on_error=1 "./$build_dir/tests/tests_service"
  TSAN_OPTIONS=halt_on_error=1 "./$build_dir/tests/tests_elastic"
  TSAN_OPTIONS=halt_on_error=1 "./$build_dir/tests/tests_tune"
}

run_soak() { # run_soak <cc> <cxx>
  local cc=$1 cxx=$2
  local build_dir="build-release-${cc}"
  note "leg: service soak / ${cc} (10k jobs + planner leg + full elastic fault soak)"
  CC=$cc CXX=$cxx cmake --preset release -B "$build_dir" >/dev/null
  cmake --build "$build_dir" -j "$(nproc)" --target bench_service bench_elastic
  mkdir -p "bench-smoke-release-${cc}"
  (cd "bench-smoke-release-${cc}" && \
    "../$build_dir/bench/bench_service" --min-throughput 50 --planner \
      --report=BENCH_service_full.json)
  (cd "bench-smoke-release-${cc}" && \
    "../$build_dir/bench/bench_elastic" --report=BENCH_elastic_full.json)
}

# Child mode: execute exactly one leg under this file's `set -e`, so a
# failure anywhere inside it yields a nonzero exit the parent can record.
if [ "${1:-}" = "--leg" ]; then
  shift
  kind=$1; shift
  case "$kind" in
    matrix) run_leg "$@" ;;
    tsan)   run_tsan "$@" ;;
    soak)   run_soak "$@" ;;
    *) echo "ci_local: unknown leg kind '$kind'" >&2; exit 2 ;;
  esac
  exit 0
fi

QUICK=0
SOAK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --soak)  SOAK=1 ;;
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

leg_names=()
leg_status=()
dispatch() { # dispatch <name> <kind> [args...]
  local name=$1; shift
  local rc=0
  bash "$0" --leg "$@" || rc=$?
  leg_names+=("$name")
  leg_status+=("$rc")
}

if [ "$QUICK" -eq 1 ]; then
  IFS=: read -r cc cxx <<<"${compilers[0]}"
  dispatch "release/${cc}" matrix release "$cc" "$cxx"
else
  for entry in "${compilers[@]}"; do
    IFS=: read -r cc cxx <<<"$entry"
    dispatch "release/${cc}" matrix release "$cc" "$cxx"
    dispatch "asan/${cc}" matrix asan "$cc" "$cxx"
  done
  IFS=: read -r cc cxx <<<"${compilers[0]}"
  dispatch "tsan/${cc}" tsan "$cc" "$cxx"
fi
if [ "$SOAK" -eq 1 ]; then
  IFS=: read -r cc cxx <<<"${compilers[0]}"
  dispatch "soak/${cc}" soak "$cc" "$cxx"
fi

note "ci_local summary"
failed=0
for i in "${!leg_names[@]}"; do
  if [ "${leg_status[$i]}" -eq 0 ]; then
    printf '  PASS  %s\n' "${leg_names[$i]}"
  else
    printf '  FAIL  %s (exit %s)\n' "${leg_names[$i]}" "${leg_status[$i]}"
    failed=1
  fi
done
if [ "$failed" -ne 0 ]; then
  echo "ci_local: FAILED"
  exit 1
fi
echo "ci_local: all legs PASS"
