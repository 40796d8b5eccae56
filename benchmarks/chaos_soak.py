"""CI chaos soak: many seeded fault plans through the full pipeline.

Sweeps a band of seeds, each expanded into a randomized-but-seeded
:class:`FaultPlan`, and runs the chaos soak harness (sanitizers on,
store plane included) for every one.  Each plan runs twice and the two
runs must produce byte-identical fault schedules — the determinism
contract — on top of the harness's own degradation invariants
(prefix-consistent delivery, exact fault/counter reconciliation, no
InvariantViolation escapes).  Results are dumped as JSON so CI can keep
the report as a build artifact.

Usage::

    PYTHONPATH=src python benchmarks/chaos_soak.py --seeds 8 --out chaos.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

from repro.faultinject import FaultPlan
from repro.faultinject.soak import run_chaos_soak


def soak_one(seed: int, intensity: float, with_store: bool) -> dict:
    """Run one plan twice; return a JSON-ready result row."""
    plan = FaultPlan.randomized(seed=seed, intensity=intensity)
    store_dirs = [
        tempfile.mkdtemp(prefix=f"chaos-{seed}-") if with_store else None
        for _ in range(2)
    ]
    try:
        first, second = (
            run_chaos_soak(plan, store_dir=store_dir) for store_dir in store_dirs
        )
    finally:
        for store_dir in store_dirs:
            if store_dir is not None:
                shutil.rmtree(store_dir, ignore_errors=True)
    failures = list(first.failures) + list(second.failures)
    if first.schedule_digest != second.schedule_digest:
        failures.append(
            f"determinism: digests diverged "
            f"({first.schedule_digest} != {second.schedule_digest})"
        )
    if first.stats != second.stats:
        failures.append("determinism: end-of-run stats diverged")
    return {
        "seed": seed,
        "intensity": intensity,
        "ok": not failures,
        "failures": failures,
        "schedule_digest": first.schedule_digest,
        "faults_injected": first.faults_injected,
        "delivered_records": first.delivered_records,
        "pkts_received": first.stats.pkts_received if first.stats else None,
        "pkts_dropped": first.stats.pkts_dropped if first.stats else None,
        "store_segments_read": first.store_segments_read,
        "store_segments_torn": first.store_segments_torn,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=6,
                        help="soak this many consecutive seeds")
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--intensity", type=float, default=0.05)
    parser.add_argument("--no-store", action="store_true",
                        help="skip the store fault plane")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    rows = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        row = soak_one(seed, args.intensity, with_store=not args.no_store)
        rows.append(row)
        total = sum(row["faults_injected"].values())
        print(
            f"seed {seed}: {'PASS' if row['ok'] else 'FAIL'} "
            f"({total} faults, {row['delivered_records']} records delivered)"
        )
        for failure in row["failures"]:
            print(f"  FAIL: {failure}")
    report = {
        "plans": len(rows),
        "passed": sum(row["ok"] for row in rows),
        "results": rows,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.out}")
    print(f"{report['passed']}/{report['plans']} plans passed")
    return 0 if report["passed"] == report["plans"] else 1


if __name__ == "__main__":
    sys.exit(main())
