#!/usr/bin/env bash
# Builds the qif benchmark and runs its workloads, each in its own qif_bench
# processes (so peak_rss_mib is per workload).
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1]
#                    [--smoke] [--bin QIF_BENCH] [--results DIR]
#
# Defaults: every workload, seed 42, 15 s timed loop, untraced.  For each
# workload it writes DIR/W.json (default DIR: build-bench/results), with
# --trace 1 also the Chrome trace DIR/W.trace.json, prints a metric table,
# and prints as its last line one JSON object with the end-to-end metrics
# (--trace 0) or the per-layer metrics (--trace 1).  It exits non-zero when
# a build, a run or an output check fails.
#
# setup_s is the median of three set-ups in fresh processes: two
# --setup-only runs and the measuring run itself.
#
# --smoke runs every workload and every check at minimum size (traced);
# --bin uses an already built driver instead of building one.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BENCH_DIR="${ROOT}/benchmark"
BUILD_DIR="${ROOT}/build-bench"
ALL_WORKLOADS=(pipeline-io500 mitigate-faulted serve-openloop cluster-1008)

WORKLOADS=()
SEED=42
RUN_SECONDS=15
TRACE=0
SMOKE=0
BIN=""
RESULTS="${BUILD_DIR}/results"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) WORKLOADS+=("$2"); shift 2 ;;
    --seed) SEED="$2"; shift 2 ;;
    --seconds) RUN_SECONDS="$2"; shift 2 ;;
    --trace) TRACE="$2"; shift 2 ;;
    --smoke) SMOKE=1; TRACE=1; shift ;;
    --bin) BIN="$2"; shift 2 ;;
    --results) RESULTS="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ "${TRACE}" != 0 && "${TRACE}" != 1 ]]; then
  echo "run.sh: --trace takes 0 or 1" >&2
  exit 2
fi
[[ ${#WORKLOADS[@]} -gt 0 ]] || WORKLOADS=("${ALL_WORKLOADS[@]}")

if [[ -z "${BIN}" ]]; then
  mkdir -p "${BUILD_DIR}"
  cmake -S "${BENCH_DIR}" -B "${BUILD_DIR}" > "${BUILD_DIR}/configure.log" 2>&1 ||
    { cat "${BUILD_DIR}/configure.log" >&2; exit 1; }
  cmake --build "${BUILD_DIR}" -j "$(nproc)" > "${BUILD_DIR}/build.log" 2>&1 ||
    { tail -n 50 "${BUILD_DIR}/build.log" >&2; exit 1; }
  BIN="${BUILD_DIR}/qif_bench"
fi

REV=unknown
if [[ -d "${ROOT}/.git" ]]; then
  REV="$(git -C "${ROOT}" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

mkdir -p "${RESULTS}"
status=0
for workload in "${WORKLOADS[@]}"; do
  result="${RESULTS}/${workload}.json"
  rm -f "${result}"
  args=(--workload "${workload}" --seed "${SEED}" --work-dir "${RESULTS}/work/${workload}")
  [[ "${SMOKE}" -eq 1 ]] && args+=(--smoke)
  samples=""
  if [[ "${SMOKE}" -eq 0 ]]; then
    for _ in 1 2; do
      samples+="$("${BIN}" "${args[@]}" --setup-only),"
    done
  fi
  trace_args=()
  [[ "${TRACE}" -eq 1 ]] && trace_args=(--trace "${RESULTS}/${workload}.trace.json")
  echo "== ${workload} (seed ${SEED})" >&2
  "${BIN}" "${args[@]}" --seconds "${RUN_SECONDS}" --out "${result}" \
    --setup-samples "${samples}" --rev "${REV}" "${trace_args[@]}" || status=1
  if [[ -f "${result}" ]]; then
    python3 "${BENCH_DIR}/report.py" "${ROOT}/BENCHMARK.json" "${result}" --trace "${TRACE}" ||
      status=1
  else
    status=1
  fi
done
exit "${status}"
