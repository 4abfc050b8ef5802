"""Verdicts for two recorded result sets: the parent commit against a change.

Both files hold the JSON lines that ``run.py --record`` appends. Runs of a
workload are paired in file order, so record them with the same seeds and
alternate which side runs first. For each workload and end-to-end metric
the verdict is one of:

* ``better``: the change wins at least nine tenths of the pairs (ties
  count for neither), over at least ten pairs, and the medians differ by
  more than the parent's interquartile range;
* ``unresolved``: the parent's own spread (interquartile range over
  median) is wider than the metric's bound, and not every change run
  reads better than every parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound, a share of the parent's median;
* ``within bound``: otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

MIN_PAIRS = 10


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced results by workload, in file order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if record["trace"] == 0:
                    runs[record["workload"]].append(record["metrics"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool, bound: float) -> str:
    sign = -1 if lower_is_better else 1
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - pmed)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "better"
    if (p3 - p1) / abs(pmed) > bound:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return "within bound" if all_better else "unresolved"
    return "worse" if -gain / abs(pmed) > bound else "within bound"


def compare_files(parent_path: str, change_path: str, benchmark_path) -> list[str]:
    with open(benchmark_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load_runs(parent_path), load_runs(change_path)
    lines = []
    for wl in spec["workloads"]:
        name = wl["name"]
        if not parent.get(name) or not change.get(name):
            lines.append(f"{name}: missing from {'parent' if not parent.get(name) else 'change'} runs")
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            p = [m[key]["value"] for m in parent[name]]
            c = [m[key]["value"] for m in change[name]]
            n = min(len(p), len(c))
            p, c = p[:n], c[:n]
            pq, cq = quartiles(p), quartiles(c)
            lines.append(
                f"{name} {key}: {verdict(p, c, metric['better'] == 'lower', metric['bound'])}"
                f" (parent median {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}],"
                f" change median {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {metric['unit']},"
                f" {n} pairs, bound {metric['bound']})"
            )
    return lines
