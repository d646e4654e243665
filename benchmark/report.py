#!/usr/bin/env python3
"""Prints one qif_bench result file as a metric table, then one JSON line.

    report.py BENCHMARK.json RESULT.json [--trace 0|1]

The table (metric, value, unit, then the output checks) goes to stdout.
The last stdout line is {"correct", "attempted", "failed", "metrics"} with
the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1).  The metric names and units of the result must match
BENCHMARK.json exactly; on any mismatch nothing is summarised and the exit
code is 1.  The exit code is also 1 when an output check failed.
"""
import argparse
import json
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("spec", help="BENCHMARK.json")
    ap.add_argument("result", help="a result file written by qif_bench")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    with open(args.result) as f:
        result = json.load(f)
    metrics = result["metrics"]

    expected = list(spec["end_to_end"])
    if result["traced"]:
        expected += spec["per_layer"]
    problems = []
    for entry in expected:
        got = metrics.get(entry["name"])
        if got is None:
            problems.append(f"missing metric {entry['name']}")
        elif got["unit"] != entry["unit"]:
            problems.append(f"{entry['name']}: unit {got['unit']} != {entry['unit']}")
    catalogued = {e["name"] for e in spec["end_to_end"] + spec["per_layer"]}
    problems += [f"metric {n} is not in BENCHMARK.json" for n in metrics if n not in catalogued]
    if args.trace and not result["traced"]:
        problems.append("--trace 1 needs a traced result")

    print(f"{result['workload']}  seed {result['seed']}  "
          f"({', '.join(f'{k} {v}' for k, v in sorted(result['provenance'].items()))})")
    width = max(len(e["name"]) for e in expected)
    for entry in expected:
        if entry["name"] in metrics:
            value = metrics[entry["name"]]["value"]
            print(f"  {entry['name']:<{width}}  {value:>14.6g}  {entry['unit']}")
    for check in result["checks"]:
        print(f"  check {check['name']}: {'ok' if check['ok'] else 'FAILED'}  {check['detail']}")
    if problems:
        for p in problems:
            print(f"report.py: {p}", file=sys.stderr)
        return 1

    selected = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = {
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            e["name"]: {"value": metrics[e["name"]]["value"], "unit": e["unit"]} for e in selected
        },
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
