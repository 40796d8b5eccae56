"""Perf-regression gate: simulated metrics vs a committed baseline.

The simulator is deterministic — same trace seed, same cost model, same
numbers, on any machine.  That makes the *simulated* outputs (busy
seconds per pipeline stage, delivered bytes, drop counts) an exact
fingerprint of the pipeline's performance behaviour, so a committed
baseline can gate regressions without the noise that plagues
wall-clock CI benchmarks.

Two modes::

    PYTHONPATH=src python benchmarks/regression.py --record
    PYTHONPATH=src python benchmarks/regression.py --check --out cmp.json

``--record`` replays the scenarios and (re)writes ``BENCH_BASELINE.json``
at the repository root; commit the file when a change intentionally
moves the numbers.  ``--check`` replays the same scenarios and compares
against the committed baseline: any gated metric that moves more than
``--tolerance`` (default 15%) in its "worse" direction fails the run.
Wall-clock replay time is recorded alongside for context but is never
gated — it depends on the host, not on the pipeline.  To keep even the
informational timing honest on shared runners, every scenario does one
untimed warmup pass and reports the best of three timed runs, and the
``__main__`` entry re-executes itself with ``PYTHONHASHSEED=0`` so dict
iteration (and therefore allocation patterns) cannot vary run to run.
Absolute real-time rates are ``benchmarks/perf``'s job, not this file's.

Metric directions:

* ``higher`` — more is worse (busy seconds, drops, CPU load);
* ``lower``  — less is worse (delivered bytes/events);
* ``either`` — any movement is a behaviour change worth flagging
  (streams created, trace events emitted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps import StreamDeliveryApp, attach_app
from repro.core import ScapSocket
from repro.kernelsim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.observability import Observability
from repro.traffic import campus_mix

GBIT = 1e9

#: Default baseline location: the repository root, next to ROADMAP.md.
BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_BASELINE.json",
)

#: Maximum tolerated relative movement in a metric's worse direction.
DEFAULT_TOLERANCE = 0.15

#: Cost model used by every scenario.  Module-level so tests can
#: monkeypatch it with an inflated copy to prove the gate trips.
COST_MODEL: CostModel = DEFAULT_COST_MODEL


def _metric(value: float, worse: str) -> Dict[str, object]:
    return {"value": value, "worse": worse}


def _capture_metrics(
    socket: ScapSocket, result, obs: Observability
) -> Dict[str, Dict[str, object]]:
    """The gated metrics of one instrumented capture run."""
    metrics = {
        "busy_seconds": _metric(socket.runtime.busy_seconds(), "higher"),
        "softirq_load": _metric(result.softirq_load, "higher"),
        "user_utilization": _metric(result.user_utilization, "higher"),
        "delivered_bytes": _metric(result.delivered_bytes, "lower"),
        "delivered_events": _metric(result.delivered_events, "lower"),
        "dropped_packets": _metric(result.dropped_packets, "higher"),
        "discarded_packets": _metric(result.discarded_packets, "either"),
        "streams_created": _metric(result.streams_created, "either"),
        "trace_events_emitted": _metric(obs.trace.emitted, "either"),
    }
    for stage in socket.profile().stages:
        metrics[f"stage_{stage.stage}_seconds"] = _metric(
            stage.service_seconds, "higher"
        )
    return metrics


#: Timed repetitions per scenario (after one untimed warmup pass).
BEST_OF = 3


def _run_once(
    flow_count: int,
    max_flow_bytes: int,
    seed: int,
    rate_gbit: float,
    memory_size: int,
    cutoff: Optional[int],
) -> Tuple[Dict[str, Dict[str, object]], float]:
    """One replay; return (metrics, wall_seconds)."""
    trace = campus_mix(
        flow_count=flow_count, max_flow_bytes=max_flow_bytes, seed=seed
    )
    obs = Observability(enabled=True)
    socket = ScapSocket(
        trace,
        rate_bps=rate_gbit * GBIT,
        memory_size=memory_size,
        observability=obs,
        cost_model=COST_MODEL,
    )
    if cutoff is not None:
        socket.set_cutoff(cutoff)
    attach_app(socket, StreamDeliveryApp())
    wall_start = time.perf_counter()
    result = socket.start_capture(name="regression")
    wall = time.perf_counter() - wall_start
    return _capture_metrics(socket, result, obs), wall


def _run_scenario(
    flow_count: int,
    max_flow_bytes: int,
    seed: int,
    rate_gbit: float,
    memory_size: int,
    cutoff: Optional[int] = None,
) -> Tuple[Dict[str, Dict[str, object]], float]:
    """Replay one configuration; return (metrics, wall_clock_seconds).

    The simulated metrics are deterministic, so one replay fixes them;
    the informational wall clock gets a warmup pass and the best of
    :data:`BEST_OF` timed runs so it is comparable across CI hosts.
    """
    args = (flow_count, max_flow_bytes, seed, rate_gbit, memory_size, cutoff)
    _run_once(*args)  # warmup: imports, caches, branch predictors
    best_wall = float("inf")
    metrics: Dict[str, Dict[str, object]] = {}
    for _ in range(BEST_OF):
        metrics, wall = _run_once(*args)
        best_wall = min(best_wall, wall)
    return metrics, best_wall


# Plenty of memory, moderate rate: the steady-state delivery path.
DELIVERY_PARAMS: Dict[str, object] = {
    "flow_count": 150,
    "max_flow_bytes": 400_000,
    "seed": 11,
    "rate_gbit": 4.0,
    "memory_size": 1 << 22,
}

# Tight memory + cutoff at a high rate: PPL, cutoff discards, and
# FDIR offload all engage, exercising the overload machinery.
OVERLOAD_PARAMS: Dict[str, object] = {
    "flow_count": 150,
    "max_flow_bytes": 400_000,
    "seed": 23,
    "rate_gbit": 7.0,
    "memory_size": 1 << 19,
    "cutoff": 16_384,
}

SCENARIOS: Dict[str, Callable[[], Tuple[Dict[str, Dict[str, object]], float]]] = {
    "delivery": lambda: _run_scenario(**DELIVERY_PARAMS),
    "overload": lambda: _run_scenario(**OVERLOAD_PARAMS),
}


def run_scenarios() -> Dict[str, Dict[str, object]]:
    """Replay every scenario; return the baseline-file payload."""
    scenarios = {}
    for name, runner in SCENARIOS.items():
        metrics, wall = runner()
        scenarios[name] = {
            "metrics": metrics,
            "informational": {"wall_clock_seconds": wall},
        }
    return {
        "version": 1,
        "tolerance": DEFAULT_TOLERANCE,
        "scenarios": scenarios,
    }


def compare(
    baseline: Dict[str, Dict[str, object]],
    current: Dict[str, Dict[str, object]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[List[str], List[Dict[str, object]]]:
    """Compare two scenario payloads; return (failures, per-metric rows).

    A metric fails when its relative movement in the "worse" direction
    exceeds ``tolerance``; movement in the better direction is reported
    but never fails (commit a new baseline to lock in improvements).
    """
    failures: List[str] = []
    rows: List[Dict[str, object]] = []
    for name, base_scenario in baseline["scenarios"].items():
        cur_scenario = current["scenarios"].get(name)
        if cur_scenario is None:
            failures.append(f"{name}: scenario missing from current run")
            continue
        for metric, base_entry in base_scenario["metrics"].items():
            cur_entry = cur_scenario["metrics"].get(metric)
            if cur_entry is None:
                failures.append(f"{name}/{metric}: missing from current run")
                continue
            base_value = float(base_entry["value"])
            cur_value = float(cur_entry["value"])
            worse = base_entry["worse"]
            if base_value != 0.0:
                change = (cur_value - base_value) / abs(base_value)
            elif cur_value == 0.0:
                change = 0.0
            else:
                change = float("inf") if cur_value > 0 else float("-inf")
            if worse == "higher":
                regression = change
            elif worse == "lower":
                regression = -change
            else:  # "either"
                regression = abs(change)
            failed = regression > tolerance
            rows.append(
                {
                    "scenario": name,
                    "metric": metric,
                    "baseline": base_value,
                    "current": cur_value,
                    "change": change,
                    "worse": worse,
                    "failed": failed,
                }
            )
            if failed:
                failures.append(
                    f"{name}/{metric}: {base_value:g} -> {cur_value:g} "
                    f"({change:+.1%}, worse={worse}, tolerance {tolerance:.0%})"
                )
    return failures, rows


def _format_rows(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'scenario':<10} {'metric':<34} {'baseline':>14} "
        f"{'current':>14} {'change':>9}  gate"
    ]
    for row in rows:
        verdict = "FAIL" if row["failed"] else "ok"
        lines.append(
            f"{row['scenario']:<10} {row['metric']:<34} "
            f"{row['baseline']:>14.6g} {row['current']:>14.6g} "
            f"{row['change']:>+8.1%}  {verdict}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="record or check the simulated-performance baseline"
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--record", action="store_true", help="rewrite the baseline file"
    )
    mode.add_argument(
        "--check", action="store_true", help="compare against the baseline"
    )
    parser.add_argument(
        "--baseline", default=BASELINE_PATH, help="baseline file location"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="max tolerated worse-direction change (default: from baseline)",
    )
    parser.add_argument(
        "--out", default=None, help="write the comparison report JSON here"
    )
    args = parser.parse_args(argv)

    if args.record:
        payload = run_scenarios()
        with open(args.baseline, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote baseline for {len(payload['scenarios'])} scenarios "
              f"to {args.baseline}")
        return 0

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    )
    current = run_scenarios()
    failures, rows = compare(baseline, current, tolerance)
    print(_format_rows(rows))
    if args.out:
        report = {
            "tolerance": tolerance,
            "failures": failures,
            "rows": rows,
            "informational": {
                name: {
                    "baseline": baseline["scenarios"][name]["informational"],
                    "current": current["scenarios"][name]["informational"],
                }
                for name in current["scenarios"]
                if name in baseline["scenarios"]
            },
        }
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote comparison report to {args.out}")
    if failures:
        print(f"\nFAILED: {len(failures)} metric(s) regressed "
              f"beyond {tolerance:.0%}:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nbaseline check passed ({len(rows)} metrics within "
          f"{tolerance:.0%})")
    return 0


def _reexec_with_fixed_hash_seed() -> None:
    """Re-exec under ``PYTHONHASHSEED=0`` so timings are reproducible.

    Called only from the ``__main__`` block — in-process callers (the
    test suite invokes :func:`main` directly) must never be re-exec'd.
    """
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


if __name__ == "__main__":
    _reexec_with_fixed_hash_seed()
    sys.exit(main())
