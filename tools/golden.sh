#!/usr/bin/env bash
# Golden-output gate: reruns the deterministic bench binaries and the ring-mc
# preset scenarios at their built-in seeds and diffs the output, byte for
# byte, against the files committed under tests/golden/.
#
#   tools/golden.sh                  # fast set (ctest -L golden runs the same)
#   tools/golden.sh --slow           # fast set + slow set
#   tools/golden.sh NAME...          # only the named entries
#   tools/golden.sh --bless [...]    # rewrite the golden files from fresh
#                                    # output and print the unified diff
#
# A bless is guarded: the fresh outputs are staged over a copy of
# tests/golden/ and build/tests/shape_test (the paper-shape checks) runs
# against the staged tree (RING_GOLDEN_DIR). If any check fails, or any
# entry fails to run or match an unblessable file, the bless names what
# failed and writes nothing.
#
# Entries and their golden files:
#   <bench>        stdout of bench/<bench>: tests/golden/<bench>.txt
#                  (slow set: tests/golden/slow/<bench>.txt)
#   mc_<scenario>  stdout of `ringctl mc --scenario=<scenario>
#                  --inject-bug=false`: tests/golden/mc_<scenario>.txt; and
#                  the minimized spec of the bug-injected run, which must
#                  exit 3: tests/golden/mc_<scenario>.spec
# chaos_availability and rebalance_cost also write a JSON report. The gate
# passes them a path in a temp directory and diffs the report against the
# committed BENCH_chaos.json / BENCH_rebalance.json at the repository root.
# It never writes those two files, not even with --bless; regenerate them
# with `build/bench/chaos_availability BENCH_chaos.json` (and likewise for
# rebalance_cost).
#
# RING_BUILD_DIR (default: build) is the build tree holding the binaries.
# micro_coding and sim_core report host time and have no golden output.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
BUILD="$(cd "${RING_BUILD_DIR:-build}" && pwd)"

FAST=(fig2_reliability fig7_latency fig7c_baselines fig8_move fig10_pricing
      fig12_metadata_recovery fig13_block_recovery fig16_availability
      ablation_quorum ablation_gc_policy ablation_stripe_unit
      ablation_unavailability ablation_srs_remap autotier_adaptive
      rebalance_cost chaos_availability
      mc_wedged-write mc_single-source-recovery mc_gc-revalidate)
SLOW=(table1_tradeoffs fig9_throughput fig11_ycsb ablation_balancing)

BLESS=0
WITH_SLOW=0
NAMES=()
for arg in "$@"; do
  case "${arg}" in
    --bless) BLESS=1 ;;
    --slow) WITH_SLOW=1 ;;
    -*) echo "golden: unknown flag ${arg}" >&2; exit 2 ;;
    *) NAMES+=("${arg}") ;;
  esac
done
if [[ ${#NAMES[@]} -eq 0 ]]; then
  NAMES=("${FAST[@]}")
  [[ ${WITH_SLOW} -eq 0 ]] || NAMES+=("${SLOW[@]}")
fi

SCRATCH="$(mktemp -d)"
trap 'rm -rf "${SCRATCH}"' EXIT
# --bless writes here first; tests/golden/ changes only once the staged
# tree passes the shape checks.
STAGE="${SCRATCH}/stage"
BLESSED=()
[[ ${BLESS} -eq 0 ]] || cp -R tests/golden "${STAGE}"

# Runs entry $1, leaving its fresh outputs in ${SCRATCH}/$1.*.
run_entry() {
  local name="$1" rc=0
  case "${name}" in
    mc_*)
      "${BUILD}/tools/ringctl" mc --scenario="${name#mc_}" \
        --inject-bug=false > "${SCRATCH}/${name}.txt" || return 1
      "${BUILD}/tools/ringctl" mc --scenario="${name#mc_}" \
        --spec-out="${SCRATCH}/${name}.spec" > /dev/null || rc=$?
      if [[ ${rc} -ne 3 ]]; then
        echo "golden: ${name}: bug-injected run exited ${rc}, expected 3" >&2
        return 1
      fi
      ;;
    chaos_availability|rebalance_cost)
      # Relative report path: rebalance_cost echoes it on stdout.
      (cd "${SCRATCH}" && "${BUILD}/bench/${name}" "${name}.json") \
        > "${SCRATCH}/${name}.txt"
      ;;
    *) "${BUILD}/bench/${name}" > "${SCRATCH}/${name}.txt" ;;
  esac
}

# Compares golden file $1 with fresh file $2; $3 = 1 lets --bless rewrite $1.
check_file() {
  local golden="$1" fresh="$2" blessable="$3" old="$1"
  if [[ -f "${golden}" ]] && cmp -s "${golden}" "${fresh}"; then
    return 0
  fi
  [[ -f "${golden}" ]] || old=/dev/null
  diff -u --label "${golden}" --label "${golden} (fresh)" "${old}" \
    "${fresh}" || true
  if [[ ${BLESS} -eq 1 && ${blessable} -eq 1 ]]; then
    mkdir -p "$(dirname "${STAGE}/${golden#tests/golden/}")"
    cp "${fresh}" "${STAGE}/${golden#tests/golden/}"
    BLESSED+=("${golden}")
    echo "golden: staged ${golden}"
    return 0
  fi
  echo "golden: MISMATCH ${golden}" >&2
  return 1
}

failed=0
for name in "${NAMES[@]}"; do
  dir=tests/golden
  [[ " ${SLOW[*]} " != *" ${name} "* ]] || dir=tests/golden/slow
  mkdir -p "${dir}"
  ok=1
  run_entry "${name}" || { failed=1; continue; }
  check_file "${dir}/${name}.txt" "${SCRATCH}/${name}.txt" 1 || ok=0
  case "${name}" in
    mc_*) check_file "${dir}/${name}.spec" "${SCRATCH}/${name}.spec" 1 \
            || ok=0 ;;
    chaos_availability) check_file "${ROOT}/BENCH_chaos.json" \
                          "${SCRATCH}/${name}.json" 0 || ok=0 ;;
    rebalance_cost) check_file "${ROOT}/BENCH_rebalance.json" \
                      "${SCRATCH}/${name}.json" 0 || ok=0 ;;
  esac
  if [[ ${ok} -eq 1 ]]; then
    echo "golden: ${name} ok"
  else
    failed=1
  fi
done

if [[ ${failed} -ne 0 ]]; then
  if [[ ${BLESS} -eq 1 ]]; then
    echo "golden: FAILED; bless refused, nothing written" >&2
  else
    echo "golden: FAILED (rerun with --bless to accept an intended change)" >&2
  fi
  exit 1
fi
if [[ ${#BLESSED[@]} -gt 0 ]]; then
  if ! RING_GOLDEN_DIR="${STAGE}" "${BUILD}/tests/shape_test" \
      > "${SCRATCH}/shape_test.log" 2>&1; then
    cat "${SCRATCH}/shape_test.log" >&2
    sed -n 's/^\[  FAILED  \] \([A-Za-z0-9_]*\.[A-Za-z0-9_]*\).*/\1/p' \
      "${SCRATCH}/shape_test.log" | sort -u |
      sed 's/^/golden: shape check fails on the new outputs: /' >&2
    echo "golden: bless refused; nothing written" >&2
    exit 1
  fi
  for golden in "${BLESSED[@]}"; do
    cp "${STAGE}/${golden#tests/golden/}" "${golden}"
    echo "golden: blessed ${golden}"
  done
fi
echo "golden: all ${#NAMES[@]} entries match"
