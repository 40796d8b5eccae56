"""``python -m benchmarks.perf run|compare`` (from the repository root)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from typing import Any, Dict, List

from . import compare
from .spec import END_TO_END, RUN_SECONDS, WORKLOADS

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))


def _commit() -> str:
    """The checked-out commit, marked when the tree differs from it."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=_ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return git("rev-parse", "HEAD") + ("+changes" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _one(workload: str, args: argparse.Namespace, traced: bool, scratch: str) -> Dict[str, Any]:
    """One ``run.py`` process; returns its detail record."""
    detail = os.path.join(scratch, f"{workload}-{int(traced)}.json")
    command = [
        sys.executable, os.path.join(_HERE, "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--scale", args.scale,
        "--trace", str(int(traced)), "--detail", detail,
    ]
    if traced and args.trace_out:
        command += ["--trace-out", os.path.join(scratch, f"{workload}-spans.json")]
    done = subprocess.run(command, cwd=_ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {done.returncode}")
    with open(detail) as handle:
        return json.load(handle)


def _run(args: argparse.Namespace) -> int:
    names = args.workload or [item.name for item in WORKLOADS]
    scratch = os.path.join(_HERE, ".work", f"cli-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    output: Dict[str, Any] = {
        "benchmark": "benchmarks/perf", "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "commit": _commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "workloads": {},
    }
    spans: List[Dict[str, Any]] = []
    failed = 0
    try:
        for name in names:
            record = _one(name, args, False, scratch)
            print(f"\n{name}  ({record['attempted']} operations, {record['failed']} failed, "
                  f"{record['wall_s']:.1f} s)")
            for metric in END_TO_END:
                row = record["metrics"][metric.name]
                print(f"  {metric.name:<26} {row['value']:>14.4f} {row['unit']:<8} "
                      f"[q1 {row['q1']:.4g}  q3 {row['q3']:.4g}  n {row['n']}]")
            failed += record["failed"]
            if args.traced:
                traced = _one(name, args, True, scratch)
                print(f"  -- traced: {traced['spans']} spans, "
                      f"{traced['attributed_share']:.1%} of {traced['traced_wall_s']:.2f} s "
                      f"attributed to layers")
                for key, row in traced["metrics"].items():
                    print(f"  {key:<42} {row['value']:>14.6g} {row['unit']}")
                record["per_layer"] = {
                    key: traced[key] for key in
                    ("metrics", "traced_wall_s", "spans", "attributed_share", "attempted",
                     "failed", "checks")
                }
                failed += traced["failed"]
                if args.trace_out:
                    with open(os.path.join(scratch, f"{name}-spans.json")) as handle:
                        spans.append(json.load(handle))
            output["workloads"][name] = record
    finally:
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(output, handle, indent=1)
        if args.trace_out and spans:
            with open(args.trace_out, "w") as handle:
                json.dump({"commit": output["commit"], "seed": args.seed, "workloads": spans},
                          handle)
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure the workloads and print every metric")
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--workload", action="append", choices=[w.name for w in WORKLOADS],
                     help="only this workload (repeatable); default: all")
    run.add_argument("--traced", action="store_true",
                     help="also make the traced run that gives the per-layer metrics")
    run.add_argument("--seconds", type=float, default=RUN_SECONDS)
    run.add_argument("--scale", choices=("full", "tiny"), default="full")
    run.add_argument("--out", metavar="FILE", help="write the results (with samples) here")
    run.add_argument("--trace-out", metavar="FILE",
                     help="with --traced: write the span dumps here")
    run.set_defaults(handler=_run)
    cmp_parser = commands.add_parser(
        "compare", help="apply the bounds in BENCHMARK.json to two result files")
    cmp_parser.add_argument("base")
    cmp_parser.add_argument("change")
    cmp_parser.set_defaults(handler=lambda a: compare.main(a.base, a.change))
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
