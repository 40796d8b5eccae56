"""``compare A.json B.json``: apply the bounds of ``BENCHMARK.json``.

Both files are outputs of ``python -m benchmarks.perf run --out``.  One
row per (workload, end-to-end metric): both values with the quartiles
of their samples, the ratio with its base, and a verdict.

* ``ok`` — B is not worse than A by more than the metric's bound;
* ``regressed`` — it is, and the samples are tight enough to say so;
* ``unresolved`` — it is, but the samples of either side are spread
  (first to third quartile) wider than the bound and the two ranges
  overlap: a disturbed run, to be repeated, not a finding.

Exit status 1 on any ``regressed`` row or a larger failed share.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Tuple

__all__ = ["load_bounds", "compare_runs", "format_rows", "main"]

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_bounds(path: str = os.path.join(_ROOT, "BENCHMARK.json")) -> Dict[str, Dict[str, Any]]:
    """``{metric: {"bound": ..., "better": ..., "unit": ...}}``."""
    with open(path) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def _worsening(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base``."""
    if better == "higher":
        return (base - change) / base
    return (change - base) / base


def _spread(record: Mapping[str, Any]) -> float:
    """Distance between the quartiles, as a share of the median."""
    return (record["q3"] - record["q1"]) / abs(record["value"])


def _overlap(base: Mapping[str, Any], change: Mapping[str, Any]) -> bool:
    return base["q1"] <= change["q3"] and change["q1"] <= base["q3"]


def compare_runs(
    base: Mapping[str, Any], change: Mapping[str, Any], bounds: Mapping[str, Mapping[str, Any]]
) -> Tuple[List[Dict[str, Any]], bool]:
    """Rows for every (workload, metric) both runs have, and whether the
    change fails a larger share of its operations."""
    rows: List[Dict[str, Any]] = []
    more_failures = False
    for name, base_workload in base["workloads"].items():
        change_workload = change["workloads"].get(name)
        if change_workload is None:
            continue
        base_failed = base_workload["failed"] / base_workload["attempted"]
        change_failed = change_workload["failed"] / change_workload["attempted"]
        more_failures = more_failures or change_failed > base_failed
        for metric, rule in bounds.items():
            a = base_workload["metrics"].get(metric)
            b = change_workload["metrics"].get(metric)
            if a is None or b is None:
                continue
            worse = _worsening(a["value"], b["value"], rule["better"])
            spread = max(_spread(a), _spread(b))
            if worse <= rule["bound"]:
                verdict = "ok"
            elif spread > rule["bound"] and _overlap(a, b):
                verdict = "unresolved"
            else:
                verdict = "regressed"
            rows.append({
                "workload": name, "metric": metric, "unit": rule["unit"],
                "base": a["value"], "base_q1": a["q1"], "base_q3": a["q3"], "base_n": a["n"],
                "change": b["value"], "change_q1": b["q1"], "change_q3": b["q3"],
                "change_n": b["n"], "ratio": b["value"] / a["value"],
                "worse_by": worse, "spread": spread, "bound": rule["bound"],
                "verdict": verdict,
            })
    return rows, more_failures


def format_rows(rows: List[Mapping[str, Any]]) -> str:
    lines = [
        f"{'workload':<15} {'metric':<24} {'unit':<8} {'base [q1 q3] n':<38} "
        f"{'change [q1 q3] n':<38} {'change/base':>11} {'spread':>6} {'bound':>6}  verdict"
    ]
    for row in rows:
        base = (f"{row['base']:.4g} [{row['base_q1']:.4g} {row['base_q3']:.4g}] "
                f"{row['base_n']}")
        change = (f"{row['change']:.4g} [{row['change_q1']:.4g} {row['change_q3']:.4g}] "
                  f"{row['change_n']}")
        lines.append(
            f"{row['workload']:<15} {row['metric']:<24} {row['unit']:<8} {base:<38} "
            f"{change:<38} {row['ratio']:>10.3f}x {row['spread']:>6.2f} {row['bound']:>6.2f}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(base_path: str, change_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    rows, more_failures = compare_runs(base, change, load_bounds())
    print(f"base   = {base_path}\nchange = {change_path}")
    print(format_rows(rows))
    verdicts = [row["verdict"] for row in rows]
    print(f"{verdicts.count('ok')} ok, {verdicts.count('regressed')} regressed, "
          f"{verdicts.count('unresolved')} unresolved"
          + ("; the change fails a larger share of its operations" if more_failures else ""))
    return 1 if "regressed" in verdicts or more_failures else 0
