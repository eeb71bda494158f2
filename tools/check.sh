#!/usr/bin/env bash
# Tier-1 gate: builds the tree and runs the test suite normally, then the
# analysis gate (ring-lint + clang-tidy), then again under AddressSanitizer +
# UndefinedBehaviorSanitizer with leak detection on, a ThreadSanitizer subset
# (the coding/sim kernels a future threaded runtime would touch first), and a
# scalar-forced coding build (-DRING_FORCE_SCALAR=ON) covering the portable
# GF(2^8) kernels that SIMD hosts would otherwise never execute. The coding
# bench smoke runs in every built leg, including the scalar one.
#
#   tools/check.sh            # everything
#   tools/check.sh --fast     # plain build + ctest + bench smoke only
#   tools/check.sh --lint     # ring-lint + clang-tidy only
#   tools/check.sh --chaos    # chaos harness: fuzz seeds plain + ASan,
#                             # availability bench smoke
#   tools/check.sh --obs      # telemetry pipeline: zero-perturbation gate
#                             # (determinism with timeseries+recorder on),
#                             # obs unit tests, ringctl report/stats smoke
#   tools/check.sh --membership  # elastic membership: unit + chaos seeds
#                             # plain and ASan, rebalance bench, ringctl
#                             # cluster smoke
#   tools/check.sh --perf     # simulator fast path: scheduler/pool/CPU
#                             # unit tests, sim_core quick bench, simstats
#                             # smoke
#   tools/check.sh --mc       # schedule-space model checker: mc_test (DPOR,
#                             # shrinker, replay), then per known-bug
#                             # scenario: rediscover with the bug injected
#                             # (exit 3 + minimized spec), replay the spec
#                             # byte-identically, and sweep clean without it
#   tools/check.sh --e2e      # end-to-end benchmark: standalone Release
#                             # build of e2e_bench (as e2e_bench/run.py
#                             # builds it) + its smoke test (ctest -L bench)
#                             # + one short tools/e2e_ab.sh pair vs HEAD
#   tools/check.sh --golden   # golden-output gate: every deterministic
#                             # bench binary (slow set included) and the
#                             # ring-mc sweeps against tests/golden/
#                             # (tools/golden.sh --slow)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
MODE="${1:-}"

# ccache (when installed) transparently accelerates every rebuilt leg.
LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "${build_dir}" -S . "${LAUNCHER_ARGS[@]}" "$@"
  cmake --build "${build_dir}" -j "${JOBS}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

bench_smoke() {
  "$1/bench/micro_coding" --benchmark_filter='BM_GfMulAddRegion/1024$' \
    --benchmark_min_time=0.01
}

run_lint() {
  echo "== analysis: ring-lint determinism hygiene =="
  cmake -B build -S . "${LAUNCHER_ARGS[@]}" >/dev/null
  cmake --build build -j "${JOBS}" --target ring-lint
  ./build/tools/ring-lint .

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== analysis: clang-tidy (all of src/) =="
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      "${LAUNCHER_ARGS[@]}" >/dev/null
    find src -name '*.cc' -print0 \
      | xargs -0 clang-tidy -p build --quiet
  elif [[ -n "${RING_REQUIRE_CLANG_TIDY:-}" ]]; then
    echo "clang-tidy required (RING_REQUIRE_CLANG_TIDY set) but not found" >&2
    exit 1
  else
    echo "clang-tidy not installed; skipping (checks listed in .clang-tidy)"
  fi
}

if [[ "${MODE}" == "--lint" ]]; then
  run_lint
  echo "check.sh: lint passed"
  exit 0
fi

if [[ "${MODE}" == "--chaos" ]]; then
  echo "== chaos: fuzz seeds (plain) =="
  cmake -B build -S . "${LAUNCHER_ARGS[@]}" >/dev/null
  cmake --build build -j "${JOBS}" \
    --target chaos_fuzz_test consensus_test chaos_availability
  ./build/tests/chaos_fuzz_test
  echo "== chaos: membership and revoke-then-promote (§16) =="
  ./build/tests/consensus_test
  echo "== chaos: availability bench smoke =="
  ./build/bench/chaos_availability
  echo "== chaos: fuzz seeds (asan,ubsan) =="
  cmake -B build-sanitize -S . -DRING_SANITIZE=address,undefined \
    "${LAUNCHER_ARGS[@]}" >/dev/null
  cmake --build build-sanitize -j "${JOBS}" --target chaos_fuzz_test
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    ./build-sanitize/tests/chaos_fuzz_test
  echo "check.sh: chaos suite passed"
  exit 0
fi

if [[ "${MODE}" == "--membership" ]]; then
  echo "== membership: build elastic targets =="
  cmake -B build -S . "${LAUNCHER_ARGS[@]}" >/dev/null
  cmake --build build -j "${JOBS}" \
    --target membership_test chaos_fuzz_test rebalance_cost ringctl
  echo "== membership: unit + property tests =="
  ./build/tests/membership_test
  echo "== membership: chaos seeds (plain) =="
  ./build/tests/chaos_fuzz_test --gtest_filter='*MembershipChaos*'
  echo "== membership: ringctl cluster add/remove smoke =="
  ./build/tools/ringctl cluster add --scheme=srs32 --keys=200 >/dev/null
  ./build/tools/ringctl cluster remove --scheme=rep3 --keys=200 >/dev/null
  echo "== membership: rebalance cost bench =="
  ./build/bench/rebalance_cost /tmp/BENCH_rebalance.json >/dev/null
  echo "== membership: unit + chaos seeds (asan,ubsan) =="
  cmake -B build-sanitize -S . -DRING_SANITIZE=address,undefined \
    "${LAUNCHER_ARGS[@]}" >/dev/null
  cmake --build build-sanitize -j "${JOBS}" \
    --target membership_test chaos_fuzz_test
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    ./build-sanitize/tests/membership_test
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    ./build-sanitize/tests/chaos_fuzz_test \
    --gtest_filter='*MembershipChaos*'
  echo "check.sh: membership suite passed"
  exit 0
fi

if [[ "${MODE}" == "--perf" ]]; then
  echo "== perf: build simulator fast-path targets =="
  cmake -B build -S . "${LAUNCHER_ARGS[@]}" >/dev/null
  cmake --build build -j "${JOBS}" --target sim_test sim_core ringctl
  echo "== perf: scheduler/pool/CPU unit tests =="
  ./build/tests/sim_test
  echo "== perf: sim_core quick bench =="
  ./build/bench/sim_core --quick | tee /tmp/BENCH_sim.json
  echo "== perf: ringctl simstats smoke =="
  ./build/tools/ringctl simstats --reps=200 >/dev/null
  echo "check.sh: perf suite passed"
  exit 0
fi

if [[ "${MODE}" == "--mc" ]]; then
  echo "== mc: build model-checker targets =="
  cmake -B build -S . "${LAUNCHER_ARGS[@]}" >/dev/null
  cmake --build build -j "${JOBS}" --target mc_test ringctl
  echo "== mc: unit + regression tests (DPOR, shrinker, replay) =="
  ./build/tests/mc_test
  SPEC_DIR="${MC_SPEC_DIR:-/tmp/ring_mc_specs}"
  mkdir -p "${SPEC_DIR}"
  for sc in wedged-write single-source-recovery gc-revalidate; do
    echo "== mc: rediscover ${sc} (bug injected, expect exit 3) =="
    spec="${SPEC_DIR}/${sc}.spec"
    rc=0
    ./build/tools/ringctl mc --scenario="${sc}" --spec-out="${spec}" || rc=$?
    if [[ "${rc}" -ne 3 ]]; then
      echo "mc: ${sc}: expected exit 3 (violation found), got ${rc}" >&2
      exit 1
    fi
    echo "== mc: replay ${sc} minimized spec (byte-identity) =="
    ./build/tools/ringctl mc --replay="${spec}"
    echo "== mc: sweep ${sc} clean (bug disabled, expect exit 0) =="
    ./build/tools/ringctl mc --scenario="${sc}" --inject-bug=false
  done
  echo "check.sh: mc suite passed"
  exit 0
fi

if [[ "${MODE}" == "--e2e" ]]; then
  echo "== e2e: standalone e2e_bench build (Release) =="
  cmake -B build-e2e -S e2e_bench -DCMAKE_BUILD_TYPE=Release \
    "${LAUNCHER_ARGS[@]}" >/dev/null
  cmake --build build-e2e -j "${JOBS}" --target e2e_bench
  echo "== e2e: smoke (every workload scaled down, correctness gate on) =="
  ctest --test-dir build-e2e -L bench --output-on-failure
  echo "== e2e: A/B tooling, HEAD vs working tree (one 1-second seed) =="
  # The claim verdict of a tree against itself means nothing (exit 0 or 1);
  # a build or run failure (exit 2) is bitrot.
  rc=0
  tools/e2e_ab.sh HEAD put_saturate host_ops_per_s 1:1 || rc=$?
  if [[ "${rc}" -gt 1 ]]; then
    echo "check.sh: tools/e2e_ab.sh failed (exit ${rc})" >&2
    exit 1
  fi
  echo "check.sh: e2e suite passed"
  exit 0
fi

if [[ "${MODE}" == "--golden" ]]; then
  echo "== golden: build bench binaries + ringctl =="
  cmake -B build -S . "${LAUNCHER_ARGS[@]}" >/dev/null
  cmake --build build -j "${JOBS}"
  echo "== golden: fast + slow set against tests/golden/ =="
  RING_BUILD_DIR=build tools/golden.sh --slow
  echo "check.sh: golden suite passed"
  exit 0
fi

if [[ "${MODE}" == "--obs" ]]; then
  echo "== obs: build telemetry targets =="
  cmake -B build -S . "${LAUNCHER_ARGS[@]}" >/dev/null
  cmake --build build -j "${JOBS}" \
    --target obs_test determinism_test ringctl chaos_availability
  echo "== obs: unit tests (timeseries, recorder, export, report) =="
  ./build/tests/obs_test
  echo "== obs: zero-perturbation gate (telemetry on == telemetry off) =="
  ./build/tests/determinism_test \
    --gtest_filter='DeterminismTest.TelemetryPipelineDoesNotPerturbTheSchedule'
  echo "== obs: ringctl stats --json/--prom smoke =="
  ./build/tools/ringctl stats --reps=50 --json >/dev/null
  ./build/tools/ringctl stats --reps=50 --prom >/dev/null
  echo "== obs: ringctl report post-mortem smoke =="
  ./build/tools/ringctl report --scheme=rep3 --seed=5 --seconds=0.08 \
    --reps=400 --plan="crash node=1 at=5ms recover=30ms" \
    | grep -q "== availability dips =="
  echo "== obs: windowed chaos availability bench =="
  ./build/bench/chaos_availability /tmp/BENCH_chaos.json >/dev/null
  echo "check.sh: obs suite passed"
  exit 0
fi

echo "== tier-1: plain build + ctest =="
run_suite build

echo "== coding bench smoke (plain) =="
bench_smoke build

if [[ "${MODE}" == "--fast" ]]; then
  echo "check.sh: fast suite passed"
  exit 0
fi

run_lint

echo "== tier-1: asan,ubsan build + ctest (leak detection on) =="
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
run_suite build-sanitize -DRING_SANITIZE=address,undefined

echo "== tsan build: coding + sim subset =="
cmake -B build-tsan -S . -DRING_SANITIZE=thread "${LAUNCHER_ARGS[@]}"
cmake --build build-tsan -j "${JOBS}" \
  --target gf_test rs_test srs_test sim_test micro_coding
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
  -R 'gf_test|rs_test|srs_test|sim_test'
bench_smoke build-tsan

echo "== coding: scalar-forced build (RING_FORCE_SCALAR=ON) =="
cmake -B build-scalar -S . -DRING_FORCE_SCALAR=ON "${LAUNCHER_ARGS[@]}"
cmake --build build-scalar -j "${JOBS}" \
  --target gf_test rs_test srs_test ring_test micro_coding
ctest --test-dir build-scalar --output-on-failure -j "${JOBS}" \
  -R 'gf_test|rs_test|srs_test|ring_test'
bench_smoke build-scalar

echo "check.sh: all suites passed"
