#!/usr/bin/env python3
"""Compare two sets of servebench outputs.

    python3 servebench/compare.py base.log change.log

Each file holds the stdout of one or more runs (the `host {...}` line and
the final JSON line of each). For every workload and metric it prints the
median of each side and their ratio. It flags the comparison when the two
sides ran on different SIMD tiers or core counts: such a difference says
nothing about the change. It claims no gain; see the choosing-metrics
method for that.
"""
import json
import statistics
import sys


def load(path):
    runs, host = [], None
    with open(path) as f:
        for line in f:
            if line.startswith("host "):
                host = json.loads(line[len("host "):])
            elif line.startswith('{"correct"') and host is not None:
                runs.append((host, json.loads(line)))
                host = None
    return runs


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(p) for p in sys.argv[1:]]
    flagged = False
    for key in ("simd", "nproc", "hardware_concurrency", "build_type"):
        values = [sorted({str(h[key]) for h, _ in runs}) for runs in sides]
        if values[0] != values[1]:
            print(f"FLAG: {key} differs: base {values[0]} vs change {values[1]}")
            flagged = True
    for name, runs in zip(("base", "change"), sides):
        bad = sum(1 for _, r in runs if not r["correct"])
        if bad:
            print(f"FLAG: {bad} {name} run(s) failed their answer checks")
            flagged = True
    workloads = sorted({h["workload"] for runs in sides for h, _ in runs})
    for workload in workloads:
        print(f"\n{workload}")
        per_side = []
        for runs in sides:
            metrics = {}
            for host, result in runs:
                if host["workload"] != workload:
                    continue
                for metric, v in result["metrics"].items():
                    metrics.setdefault(metric, []).append(v["value"])
            per_side.append(metrics)
        for metric in sorted(set(per_side[0]) & set(per_side[1])):
            a = statistics.median(per_side[0][metric])
            b = statistics.median(per_side[1][metric])
            ratio = f"{b / a:8.3f}" if a else "     n/a"
            print(f"  {metric:40s} {a:14.6g} {b:14.6g} {ratio}"
                  f"  (n={len(per_side[0][metric])}/{len(per_side[1][metric])})")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
