#!/usr/bin/env python3
"""Compares two directories of e2e_bench result files.

Usage:
  python3 e2e_bench/compare.py BASE_DIR NEW_DIR [--claim METRIC:WORKLOAD ...]

Each directory holds result files written by `e2e_bench --json=...` (or
kept by `run.py --results`). End-to-end rows come from untraced results,
per-layer rows from traced ones. Each row gives both sides' median and
quartiles over their runs and a verdict for the new side:

  worse       the median moved the wrong way by more than the bound
  better      the median moved the right way by more than the bound
  unchanged   within the bound either way
  unresolved  a side's spread (quartile distance over median) exceeds the
              bound, and not every new run beats every base run

Bounds and directions come from BENCHMARK.json. Per-layer metrics have no
bound; their rows only report the numbers.

--claim applies the gain rule to one pairing: runs are paired by seed (in
order when the seeds differ), the new side must win at least 9 in 10 pairs
(ties count for neither), and the medians must differ by more than the
base side's quartile distance.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, traced): [result, ...]} sorted by seed."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if r.get("bench") != "e2e_bench":
            continue
        runs.setdefault((r["workload"], bool(r["traced"])), []).append(r)
    for rs in runs.values():
        rs.sort(key=lambda r: r["seed"])
    return runs


def values(results, section, name):
    """[(seed, value)] of one metric across runs."""
    out = []
    for r in results:
        m = r[section].get(name)
        if m is not None:
            out.append((r["seed"], m["value"]))
    return out


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, bound, better):
    sign = 1 if better == "higher" else -1
    mb, mn = statistics.median(base), statistics.median(new)
    if max(spread(base), spread(new)) > bound:
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "better"
        return "unresolved"
    change = sign * (mn - mb) / abs(mb) if mb else sign * (mn - mb)
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "unchanged"


def fmt(vals):
    q1, med, q3 = quartiles(vals)
    return f"{med:14.6g} [{q1:.6g}, {q3:.6g}]"


def claim(base_runs, new_runs, metric, workload, better):
    def runs(side):
        # Untraced runs first; metrics only a traced pass has come from
        # traced runs.
        for traced in (False, True):
            results = side.get((workload, traced), [])
            found = (values(results, "metrics", metric) or
                     values(results, "per_layer", metric))
            if found:
                return found
        return []
    base, new = runs(base_runs), runs(new_runs)
    if not base or not new:
        print(f"claim {metric}:{workload}: no runs on one side")
        return False
    by_seed = dict(base)
    pairs = [(by_seed[s], v) for s, v in new if s in by_seed]
    if not pairs:
        pairs = list(zip([v for _, v in base], [v for _, v in new]))
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    bvals = [v for _, v in base]
    q1, mb, q3 = quartiles(bvals)
    mn = statistics.median([v for _, v in new])
    met = wins >= 0.9 * len(pairs) and abs(mn - mb) > q3 - q1
    print(f"claim {metric}:{workload}: new wins {wins}/{len(pairs)} pairs, "
          f"median {mb:.6g} -> {mn:.6g}, base quartile distance "
          f"{q3 - q1:.6g}: {'met' if met else 'not met'}")
    return met


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--claim", action="append", default=[],
                   metavar="METRIC:WORKLOAD")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base_runs, new_runs = load(args.base), load(args.new)
    directions = {m["name"]: m["better"]
                  for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"{'workload':14s} {'metric':32s} {'base median [q1, q3]':>40s} "
          f"{'new median [q1, q3]':>40s} {'bound':>6s}  verdict")
    for w in spec["workloads"]:
        rows = [(m, False, "metrics") for m in spec["end_to_end"]]
        rows += [(m, True, "per_layer") for m in spec["per_layer"]]
        for m, traced, section in rows:
            base = [v for _, v in values(base_runs.get((w["name"], traced), []),
                                         section, m["name"])]
            new = [v for _, v in values(new_runs.get((w["name"], traced), []),
                                        section, m["name"])]
            if not base or not new:
                continue
            bound = m.get("bound")
            v = (verdict(base, new, bound, m["better"])
                 if bound is not None else "-")
            print(f"{w['name']:14s} {m['name']:32s} {fmt(base):>40s} "
                  f"{fmt(new):>40s} {bound if bound is not None else '-':>6}  {v}")

    ok = True
    for c in args.claim:
        metric, _, workload = c.partition(":")
        if metric not in directions or not workload:
            p.error(f"--claim {c}: need METRIC:WORKLOAD with a known metric")
        ok &= claim(base_runs, new_runs, metric, workload, directions[metric])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
