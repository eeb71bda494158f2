#!/usr/bin/env bash
# Interleaved A/B runs of the end-to-end benchmark: a base revision against
# the working tree on one or more workloads, booked with compare.py's gain
# rule.
#
#   tools/e2e_ab.sh BASE_REV WORKLOAD[,WORKLOAD...] METRIC [SEED[:SECONDS]...]
#
# Extracts BASE_REV with `git archive` into a scratch directory (the
# repository's .git is left untouched) and builds e2e_bench there and in the
# working tree, each under its own CARGO_TARGET_DIR. Then runs one pair of
# untraced runs per seed and workload: every listed workload runs the same
# seeds, seed by seed, and each seed's pairs put the same side first, the
# other side from one seed to the next. It keeps both sides' --results
# directories and ends with one
#
#   e2e_bench/compare.py BASE NEW --claim METRIC:WORKLOAD
#
# which prints the rows of every listed workload and books METRIC on the
# first one, the claimed workload (e.g. `tier_mix,put_saturate peak_rss_mb`
# claims tier_mix and shows put_saturate beside it).
#
# Seeds default to 1..10 at 15 s per run, BENCHMARK.json's run length;
# SEED:SECONDS sets a run's length (tools/check.sh --e2e uses one 1-second
# seed). Everything goes to a fresh directory under ${TMPDIR:-/tmp}, printed
# at the end.
#
# Exit status: 0 when the claim is met, 1 when it is not, 2 when a build or
# run failed.
set -euo pipefail

if [[ $# -lt 3 ]]; then
  sed -n '2,28p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
BASE_REV="$1"
IFS=, read -r -a WORKLOADS <<<"$2"
METRIC="$3"
shift 3
SEEDS=("$@")
if [[ ${#SEEDS[@]} -eq 0 ]]; then
  SEEDS=(1 2 3 4 5 6 7 8 9 10)
fi

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/e2e_ab.XXXXXX")"
COMMIT="$(git rev-parse --verify "${BASE_REV}^{commit}")" || exit 2
mkdir -p "${WORK}/base_src"
git archive --format=tar "${COMMIT}" | tar -x -C "${WORK}/base_src"

# run_side SIDE WORKLOAD SEED SECONDS: one untraced run.py invocation; its
# first call per side also builds e2e_bench (before the timed run starts).
run_side() {
  local side="$1" workload="$2" seed="$3" seconds="$4" src="${ROOT}"
  local log="${WORK}/${side}-${workload}-seed${seed}.log"
  if [[ "${side}" == base ]]; then
    src="${WORK}/base_src"
  fi
  echo "== e2e_ab: ${side} ${workload} seed ${seed} (${seconds} s) =="
  if ! (cd "${src}" && CARGO_TARGET_DIR="${WORK}/build_${side}" \
        python3 e2e_bench/run.py --workload "${workload}" --seed "${seed}" \
          --seconds "${seconds}" --trace 0 \
          --results "${WORK}/results_${side}" >"${log}" 2>&1); then
    tail -n 20 "${log}" >&2
    echo "e2e_ab: ${side} ${workload} run of seed ${seed} failed; see ${WORK}" >&2
    exit 2
  fi
  tail -n 1 "${log}"
}

pair=0
for spec in "${SEEDS[@]}"; do
  seed="${spec%%:*}"
  seconds=15
  if [[ "${spec}" == *:* ]]; then
    seconds="${spec#*:}"
  fi
  for workload in "${WORKLOADS[@]}"; do
    if (( pair % 2 == 0 )); then
      run_side base "${workload}" "${seed}" "${seconds}"
      run_side new "${workload}" "${seed}" "${seconds}"
    else
      run_side new "${workload}" "${seed}" "${seconds}"
      run_side base "${workload}" "${seed}" "${seconds}"
    fi
  done
  pair=$((pair + 1))
done

echo "== e2e_ab: ${COMMIT:0:12} vs working tree, results in ${WORK} =="
rc=0
python3 e2e_bench/compare.py "${WORK}/results_base" "${WORK}/results_new" \
  --claim "${METRIC}:${WORKLOADS[0]}" || rc=$?
exit "${rc}"
