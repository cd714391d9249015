"""Summarise perfbench results: per workload and metric, the median over runs,
the quartiles and their distance as a share of the median (the spread the
bounds in BENCHMARK.json are checked against), and speedup_r20.

    python3 perfbench/report.py [.perfbench_out]

speedup_r20 is the median infer-merge throughput over the median
infer-dense throughput. It is printed, not gated: a scan speed-up that helps
both workloads lowers it legitimately.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict


def load(directory):
    """workload -> metric -> values, over the untraced runs in directory."""
    table = defaultdict(lambda: defaultdict(list))
    for path in sorted(glob.glob(os.path.join(directory, "*-t0.json"))):
        with open(path) as f:
            run = json.load(f)
        for name, m in run["result"]["metrics"].items():
            table[run["env"]["workload"]][name].append(m["value"])
    return table


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv):
    directory = argv[0] if argv else ".perfbench_out"
    table = load(directory)
    for workload in sorted(table):
        metrics = table[workload]
        runs = max(len(v) for v in metrics.values())
        print(f"{workload}  ({runs} runs)")
        for name, values in metrics.items():
            med, q1, q3, share = spread(values)
            print(f"  {name:18s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {share:7.2%}")
    dense = table.get("infer-dense", {}).get("throughput_img_s")
    merge = table.get("infer-merge", {}).get("throughput_img_s")
    if dense and merge:
        print(f"speedup_r20 {statistics.median(merge) / statistics.median(dense):.4f}"
              " (not gated)")


if __name__ == "__main__":
    main(sys.argv[1:])
