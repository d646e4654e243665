#!/usr/bin/env python3
"""Compares benchmark runs of a parent commit and a change.

    compare.py PARENT.json... -- CHANGE.json... [--spec BENCHMARK.json]
                                                 [--bench build-bench/qif_bench]

Each argument is a result file written by qif_bench (run.sh puts them in
its --results directory, one per workload).  Give the runs of each side in
the order they were made: runs are paired by position, so alternate which
side runs first.  For every (metric, workload) with runs on both sides it
prints both sides' median and quartiles, the pairs the change won (ties
count for neither side), how much worse the change median is as a share
of the parent's (negative: better), and a verdict:

  better      at least ten pairs, the change won at least 9/10 of them, and
              its median moved by more than the parent's quartile distance
  worse       the change median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json
  unresolved  the run-to-run spread exceeds the bound, and not every change
              run reads better than every parent run
  unchanged   otherwise

Per-layer metrics have no bound; they get only "better" or "-".  The rule
itself lives in qif_bench's `verdict` mode (benchmark/src/stats.cpp), which
the unit tests cover; this script gathers the numbers and prints the table.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    """workload -> metric -> [values in run order]"""
    runs = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        if "workload" not in result or "metrics" not in result:
            sys.exit(f"compare.py: {path} is not a qif_bench result file")
        per_metric = runs.setdefault(result["workload"], {})
        for name, m in result["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
    return runs


def main():
    options = {
        "--spec": os.path.join(HERE, "..", "BENCHMARK.json"),
        "--bench": os.path.join(HERE, "..", "build-bench", "qif_bench"),
    }
    sides = ([], [])
    side = 0
    args = iter(sys.argv[1:])
    for arg in args:
        if arg == "--":
            side = 1
        elif arg in options:
            options[arg] = next(args, None)
        else:
            sides[side].append(arg)
    if side == 0 or not sides[0] or not sides[1] or None in options.values():
        print(__doc__, file=sys.stderr)
        return 2
    with open(options["--spec"]) as f:
        spec = json.load(f)
    parent = load(sides[0])
    change = load(sides[1])

    rows = []
    for kind in ("end_to_end", "per_layer"):
        for entry in spec[kind]:
            for workload in sorted(set(parent) & set(change)):
                p = parent[workload].get(entry["name"])
                c = change[workload].get(entry["name"])
                if not p or not c:
                    continue
                bound = entry.get("bound", math.inf)
                rows.append((kind, entry, workload, p, c, bound))
    if not rows:
        print("compare.py: no (metric, workload) has runs on both sides", file=sys.stderr)
        return 1

    request = "".join(
        f"{e['better']} {b!r} {','.join(map(repr, p))} {','.join(map(repr, c))}\n"
        for _, e, _, p, c, b in rows)
    done = subprocess.run([options["--bench"], "verdict"], input=request, capture_output=True,
                          text=True, check=True)
    verdicts = [json.loads(line) for line in done.stdout.splitlines()]

    print(f"{'workload':<17} {'metric':<26} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>7} {'worse by':>9}  verdict")
    for (kind, entry, workload, _, _, _), v in zip(rows, verdicts):
        verdict = v["verdict"]
        if kind == "per_layer" and verdict != "better":
            verdict = "-"
        pq, cq = v["parent"], v["change"]
        parent_text = f"{pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
        change_text = f"{cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
        delta = v["delta"]
        delta_text = f"{delta:+.1%}" if delta is not None and math.isfinite(delta) else "n/a"
        print(f"{workload:<17} {entry['name']:<26} {parent_text:>34} {change_text:>34} "
              f"{v['wins']:>3}/{v['pairs']:<3} {delta_text:>9}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
