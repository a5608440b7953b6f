"""Compare mode: parent and change results, one row per (workload, metric).

Each side is a directory of result files written by run.py.  Runs pair by
seed; with fewer than ten pairs a difference is unresolved.  A change that
fails more queries than the parent on a workload, over the paired seeds, is
worse on every metric of that workload, whatever its figures.  A metric
improved when the change wins at least nine tenths of the pairs (ties count
for neither) and the medians differ, in its favour, by more than the
parent's interquartile range.  Otherwise an end-to-end metric is worse when
its median is worse than the parent's by more than the metric's bound, and
unchanged when not; either is unresolved when the parent's own spread
exceeds the bound, unless every change run reads better than every parent
run.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

MIN_PAIRS = 10


def _load(directory: str) -> tuple[dict, dict]:
    """{(workload, metric): {seed: value}} and {(workload, trace): {seed:
    failed queries}} from every result file."""
    values: dict = {}
    failed: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        prov, result = record["provenance"], record["result"]
        failed.setdefault((prov["workload"], prov["trace"]), {})[prov["seed"]] = result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault((prov["workload"], name), {})[prov["seed"]] = m["value"]
    return values, failed


def _more_failed(parent: dict, change: dict) -> dict:
    """{workload: (parent failed, change failed)} over the paired seeds of the
    workloads on which the change fails more queries."""
    out = {}
    for key in set(parent) & set(change):
        p, c = parent[key], change[key]
        seeds = set(p) & set(c)
        pf, cf = sum(p[s] for s in seeds), sum(c[s] for s in seeds)
        if cf > pf:
            out[key[0]] = (pf, cf)
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None) -> str:
    sign = 1 if better == "higher" else -1
    q1, med_p, q3 = _quartiles(parent)
    med_c = _quartiles(change)[1]
    if len(pairs) < MIN_PAIRS:
        return "unchanged" if med_c == med_p else "unresolved"
    gain = sign * (med_c - med_p)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    if bound is None:
        losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
        return "worse" if pairs and losses >= 0.9 * len(pairs) and -gain > q3 - q1 \
            else "unchanged"
    if med_p and (q3 - q1) / abs(med_p) > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "unchanged"
        return "unresolved"
    return "worse" if med_p and -gain / abs(med_p) > bound else "unchanged"


def compare(spec: dict, parent_dir: str, change_dir: str) -> int:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (parent, parent_failed), (change, change_failed) = _load(parent_dir), _load(change_dir)
    failing = _more_failed(parent_failed, change_failed)
    for workload, (pf, cf) in sorted(failing.items()):
        print(f"{workload}: the change fails {cf} queries, the parent {pf}")
    print(f"{'workload':9s} {'metric':42s} {'parent median [q1, q3]':>35s} "
          f"{'change median [q1, q3]':>35s} {'ratio':>7s} {'base':>11s} verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        m = metrics.get(name)
        if m is None:
            continue
        p, c = parent[key], change[key]
        pairs = [(p[s], c[s]) for s in sorted(set(p) & set(c))]
        pv, cv = [p[s] for s in sorted(p)], [c[s] for s in sorted(c)]
        (p1, pm, p3), (c1, cm, c3) = _quartiles(pv), _quartiles(cv)
        ratio = cm / pm if pm else float("nan")
        judged = "worse" if workload in failing else verdict(pv, cv, pairs, m["better"],
                                                             m.get("bound"))
        print(f"{workload:9s} {name:42s} {pm:12.5g} [{p1:9.5g}, {p3:9.5g}] "
              f"{cm:12.5g} [{c1:9.5g}, {c3:9.5g}] {ratio:7.3f} {pm:11.5g} "
              f"{judged}")
    return 0
