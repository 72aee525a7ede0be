"""Median and quartiles of every metric over the runs recorded in
``perfbench/out/``.

Usage (from the repository root)::

    python3 perfbench/summarize.py [--seeds 1-10] [--trace 0]

For each workload it prints, per metric, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, over the runs whose seed is in the range. It does the
same for the reference loop timed at the start of each run, the median host
factor and the unscaled timing metrics.
"""

import argparse
import glob
import json
import os
import statistics

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-1000000", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    runs: dict = {}
    for path in glob.glob(os.path.join(OUT, f"run-*-trace{args.trace}.json")):
        with open(path) as fh:
            rec = json.load(fh)
        cond = rec["conditions"]
        if lo <= cond["seed"] <= hi:
            runs.setdefault(cond["workload"], []).append(rec)

    for workload in sorted(runs):
        recs = runs[workload]
        print(f"{workload}: {len(recs)} runs, seeds {sorted(r['conditions']['seed'] for r in recs)}")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
        rows = {name: [r["result"]["metrics"][name]["value"] for r in recs]
                for name in recs[0]["result"]["metrics"]}
        rows["(reference loop at start, ms)"] = [r["conditions"]["reference_probe_ms"]["start"]
                                                 for r in recs]
        rows["(host factor, median)"] = [r["conditions"]["host_factor"]["median"] for r in recs]
        for name in recs[0]["conditions"]["unscaled"]:
            rows[f"(unscaled {name})"] = [r["conditions"]["unscaled"][name] for r in recs]
        for name, values in rows.items():
            med, q1, q3, share = spread(values)
            print(f"  {name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.3f}")
        attempted = [r["result"]["attempted"] for r in recs]
        failed = sum(r["result"]["failed"] for r in recs)
        print(f"  attempted {min(attempted)}-{max(attempted)} per run, failed {failed}, "
              f"all correct: {all(r['result']['correct'] for r in recs)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
