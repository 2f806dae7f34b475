#!/usr/bin/env python3
"""Median, quartiles and spread of each metric over a set of run records.

    python3 perfbench/summarize.py perfbench/_work/records/*.json
    python3 perfbench/summarize.py --baseline perfbench/baseline.json RECORDS...

Records are grouped by workload and trace mode.  The spread is the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median.  --baseline writes the summary, with the environment of the
first record of each group, to the given file.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict


def summarize(records):
    groups = defaultdict(list)
    for rec in records:
        groups[(rec["workload"], rec["trace"])].append(rec)
    out = {}
    for (workload, trace), recs in sorted(groups.items()):
        metrics = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            metrics[name] = {
                "unit": recs[0]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "runs": len(values),
            }
        out[f"{workload} trace={trace}"] = {
            "seeds": [r["environment"]["seed"] for r in recs],
            "failed": sum(r["failed"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "environment": recs[0]["environment"],
            "metrics": metrics,
        }
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("records", nargs="+")
    p.add_argument("--baseline", help="write the summary as JSON to this file")
    args = p.parse_args()
    records = []
    for path in args.records:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    summary = summarize(records)
    for group, body in summary.items():
        print(f"{group}: {len(body['seeds'])} runs, failed {body['failed']} of {body['attempted']}")
        for name, m in body["metrics"].items():
            print(f"  {name:36s} median {m['median']:>12.6g} {m['unit']:9s} "
                  f"q1 {m['q1']:>12.6g} q3 {m['q3']:>12.6g} spread {m['spread']:.3f}")
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
