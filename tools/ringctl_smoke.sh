#!/usr/bin/env bash
# ringctl smoke: runs every example from the header comment of
# tools/ringctl.cc at test size and checks its exit code, plus the
# invocations that must be rejected with exit 2. ctest runs it as
# `ringctl_smoke`.
#
#   tools/ringctl_smoke.sh
#
# RING_BUILD_DIR (default: build) is the build tree holding tools/ringctl.
# Test size: --reps=20, small --keys/--entries, a --seconds of a few ms,
# and throughput at a tenth of its example's offered rate (its 0.25 s
# warm-up is fixed). A failure names the command and prints its last lines.
set -euo pipefail

cd "$(dirname "$0")/.."
RINGCTL="${RING_BUILD_DIR:-build}/tools/ringctl"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "${SCRATCH}"' EXIT

FAILED=0
# expect CODE ARGS...: runs ringctl ARGS and checks that it exits CODE.
expect() {
  local want="$1" rc=0
  shift
  "${RINGCTL}" "$@" > "${SCRATCH}/out.txt" 2>&1 || rc=$?
  if [[ ${rc} -ne ${want} ]]; then
    echo "ringctl_smoke: 'ringctl $*' exited ${rc}, expected ${want}" >&2
    tail -5 "${SCRATCH}/out.txt" >&2
    FAILED=1
  fi
}

expect 0 latency --scheme=srs32 --size=4096 --reps=20
expect 0 throughput --scheme=rep3 --clients=4 --rate=40000 --groups=5 \
  --keys=200 --seconds=0.005
expect 0 recover --scheme=srs32 --entries=50 --victim=1
expect 0 reliability --stretch=6
expect 0 schemes --shards=4 --redundant=3
expect 0 stats --scheme=srs32 --reps=20
expect 0 stats --scheme=srs32 --reps=20 --json
expect 0 stats --scheme=srs32 --reps=20 --prom
expect 0 simstats --scheme=rep3 --reps=20
expect 0 trace --scheme=srs32 --reps=20 --trace_out="${SCRATCH}/trace.json"
expect 0 autotier --scheme=rep3 --keys=240 --seconds=0.005
expect 0 calibrate --json
expect 0 chaos --scheme=rep3 --seed=5 --plan="crash node=1 at=5ms" \
  --reps=20 --seconds=0.01
expect 0 watch --scheme=rep3 --seed=5 --reps=20 --seconds=0.01
expect 0 report --scheme=rep3 --seed=5 --reps=20 --seconds=0.01
# The bug-injected exploration finds its violation (exit 3) and writes the
# minimized spec that the replay then reproduces.
expect 3 mc --scenario=wedged-write --spec-out="${SCRATCH}/ce.mcspec"
expect 0 mc --replay="${SCRATCH}/ce.mcspec"
# A replayed spec with a number its printer never writes is refused, not
# run with another value.
for edit in 's/ s=1 / s=abc /' 's/ seed=1 / seed=12x /' \
            's/ max_drops=1 / max_drops=-1 /'; do
  sed "${edit}" tests/golden/mc_wedged-write.spec > "${SCRATCH}/doctored.mcspec"
  if cmp -s tests/golden/mc_wedged-write.spec "${SCRATCH}/doctored.mcspec"; then
    echo "ringctl_smoke: '${edit}' left the spec unchanged" >&2
    FAILED=1
  fi
  expect 2 mc --replay="${SCRATCH}/doctored.mcspec"
done
expect 0 cluster status --shards=6 --keys=50
expect 0 cluster add --scheme=srs32 --count=2 --keys=50
expect 0 cluster remove --scheme=rep3 --keys=50
# Node 3 is a redundant node under the default s=3: no key homes there.
expect 2 recover --victim=3
# Numeric flags below their lower bound are refused before the command runs
# (each of these crashed, hung or printed garbage before the check).
expect 2 latency --reps=0
expect 2 chaos --seconds=0
expect 2 throughput --clients=0
expect 2 throughput --groups=0
expect 2 autotier --keys=0
expect 2 throughput --rate=0
expect 2 throughput --seconds=0
expect 2 schemes --shards=0

[[ -s "${SCRATCH}/trace.json" ]] || {
  echo "ringctl_smoke: trace wrote no ${SCRATCH}/trace.json" >&2
  FAILED=1
}
if [[ ${FAILED} -ne 0 ]]; then
  exit 1
fi
echo "ringctl_smoke: all examples ran"
