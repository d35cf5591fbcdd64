"""Median, quartiles and spread of each metric over a set of run records.

    python3 bench/summarize.py bench_records/*-trace0-*.json > summary.json

Records are grouped by workload and trace mode.  ``spread`` is the distance
between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), the figure a benchmark bound is
compared with.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summarize(paths: list[str]) -> dict:
    groups = defaultdict(list)
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        groups[f"{record['workload']}/trace{record['trace']}"].append(record)
    out = {}
    for key, records in sorted(groups.items()):
        metrics = {}
        for name, entry in records[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in records]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"unit": entry["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else None}
        out[key] = {
            "runs": len(records),
            "seeds": [r["seed"] for r in records],
            "commit": sorted({r["commit"] for r in records}, key=str),
            "seconds": records[0]["seconds"],
            "nproc": records[0]["nproc"],
            "python": records[0]["python"], "numpy": records[0]["numpy"],
            "scipy": records[0]["scipy"],
            "failures": sorted({f"{item}: {reason}" for r in records
                                for item, _, reason in r["failures"]}),
            "metrics": metrics,
        }
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1)
    sys.stdout.write("\n")
