#!/usr/bin/env python3
"""Builds e2e_bench from source and runs one workload.

Usage (from the repository root):
  python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1> [--results <dir>]

Configures e2e_bench/ as a Release build under $CARGO_TARGET_DIR (default
.bench_build/), builds it, runs it and prints its report. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end_to_end metrics of BENCHMARK.json with --trace 0, its
per_layer metrics with --trace 1. A per-layer metric the workload does not
exercise (a move breakdown without moves) reads 0.

--results copies the full result file (host context, sample counts) into
<dir> for compare.py. Exits non-zero without a result line if the build or
the run fails; a run whose outputs are wrong prints its result line with
"correct": false and exits 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e_bench")


def build(bdir):
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [line for line in f if line.startswith("CMAKE_HOME_DIRECTORY")]
        if not home or home[0].strip().split("=", 1)[1] != HERE:
            shutil.rmtree(bdir)  # a build tree of another checkout
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "e2e_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return os.path.join(bdir, "e2e_bench")


def commit():
    # Only a checkout with its own .git: git must not pick up an enclosing
    # repository.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run(binary, args, result_path):
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--json={result_path}", f"--commit={commit()}"]
    cmd.append("--traced" if args.trace == 1 else f"--seconds={args.seconds}")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"e2e_bench ran past {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    return proc.returncode


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--results", help="also keep the full result file here")
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 150:
        p.error("need --seed >= 0 and 1 <= --seconds <= 150")

    bdir = build_dir()
    binary = build(bdir)
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    result_path = os.path.join(
        bdir, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    code = run(binary, args, result_path)
    if not os.path.exists(result_path):
        fail(f"e2e_bench exited {code} without a result")
    with open(result_path) as f:
        result = json.load(f)
    if args.results:
        os.makedirs(args.results, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        shutil.copy(result_path, os.path.join(
            args.results, f"{stamp}-{os.getpid()}-{os.path.basename(result_path)}"))

    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            if m["name"] not in result["metrics"]:
                fail(f"e2e_bench did not report {m['name']}")
            metrics[m["name"]] = {"value": result["metrics"][m["name"]]["value"],
                                  "unit": m["unit"]}
    else:
        for m in spec["per_layer"]:
            got = result["per_layer"].get(m["name"]) or result["metrics"].get(m["name"])
            metrics[m["name"]] = {"value": got["value"] if got else 0.0,
                                  "unit": m["unit"]}
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
