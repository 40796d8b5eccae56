"""One run of one workload: set-up, the timed phases, checks, metrics.

``run.py`` (the command in ``BENCHMARK.json``) ends here.  An untraced
run (``--trace 0``) times every phase and prints every end-to-end
metric; a traced run (``--trace 1``) installs the wrappers of
``trace.py`` around the workload's primary phases only and prints every
per-layer metric.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from . import inputs, layers, phases, trace
from .spec import END_TO_END, RUN_SECONDS, WORKLOADS, Workload, per_layer_metrics, workload
from .speed import REFERENCE_SECONDS, Speed, pin_to_fastest_cpu
from .stats import percentile, summarize

__all__ = ["main", "run_workload"]

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Ping blocks on each set-up's daemon before it is torn down again, so
#: that ``command_p50_ms`` has seen ``SETUPS`` daemons, not one.
SETUP_PING_BLOCKS = 4

#: Least number of operations per phase at each ``--scale`` (the time
#: budget usually allows more).  ``tiny`` exists for the self-tests.
MINIMUMS = {
    "full": {"capture": 12, "record": 8, "scans": 8, "points": 1000,
             "submits": 8, "pings": 2000, "queries": 10},
    "tiny": {"capture": 2, "record": 1, "scans": 1, "points": 100,
             "submits": 1, "pings": 200, "queries": 1},
}
#: Operations of a traced run (fixed: the per-layer counts should repeat).
TRACED = {
    "full": {"baseline": 2, "capture": 3, "record": 3, "scans": 3, "points": 200,
             "submits": 3, "pings": 1100, "queries": 3},
    "tiny": {"baseline": 1, "capture": 1, "record": 1, "scans": 1, "points": 20,
             "submits": 1, "pings": 100, "queries": 1},
}


class Setup:
    """Everything built before the first warm-up pass."""

    def __init__(self, item: Workload, seed: int, scale: str, workdir: str, with_service: bool):
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        units = inputs.scaled_units(item.units, scale)
        store_units = inputs.scaled_units(item.store_units, scale)
        self.trace = inputs.build_trace(item, seed, units)
        self.store_trace = (
            self.trace if store_units == units else inputs.build_trace(item, seed, store_units)
        )
        self.pcap_path = os.path.join(workdir, "submit.pcap")
        self.pcap = inputs.pcap_bytes(self.store_trace, self.pcap_path)
        self.session = phases.ServiceSession(workdir, "daemon", item) if with_service else None

    def close(self, ledger: Optional[phases.Ledger] = None) -> None:
        if self.session is not None:
            self.session.close(ledger)
            self.session = None
        shutil.rmtree(self.workdir, ignore_errors=True)


def _freeze_inputs() -> None:
    """Take the generated inputs out of the garbage collector's view.

    The collector stays on, but a full collection in the middle of a
    pass would otherwise walk every packet of the trace — work that
    depends on the benchmark's inputs, not on the program measured.
    """
    gc.collect()
    gc.freeze()


def _peak_rss_mb(daemon: phases.Daemon) -> float:
    """Peak resident memory of this process and of the daemon (kB → MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + daemon.status("VmHWM")) / 1024.0


def _untraced(
    item: Workload, seed: int, seconds: float, scale: str, workdir: str, ledger: phases.Ledger
) -> Dict[str, Any]:
    minimum = MINIMUMS[scale]
    speed = Speed()
    samples = phases.Samples()
    setup: Optional[Setup] = None
    store = None
    phase_wall: Dict[str, float] = {}
    try:
        for index in range(SETUPS):
            if setup is not None:
                for _ in range(SETUP_PING_BLOCKS):
                    phases.ping_block(setup.session.driver, ledger, speed, samples,
                                      f"command_block_ms@{index}")
                setup.close()
            directory = os.path.join(workdir, f"setup-{index}")
            setup, wall, _, factor = speed.timed(
                lambda: Setup(item, seed, scale, directory, True))
            samples.add_time("setup_s", wall, factor)
        _freeze_inputs()
        budget = {phase: seconds * share for phase, share in item.shares.items()}
        clock = [time.perf_counter()]

        def lap(name: str) -> None:
            clock.append(time.perf_counter())
            phase_wall[name] = clock[-1] - clock[-2]

        samples.update(phases.capture_phase(
            setup.trace, item, ledger, speed, budget["capture"], minimum["capture"]))
        lap("capture")
        recorded, store = phases.record_phase(
            setup.store_trace, item, ledger, speed, setup.workdir, budget["record"],
            minimum["record"])
        samples.update(recorded)
        lap("record")
        samples.update(phases.query_phase(
            store, ledger, speed, seed, budget["query"], minimum["scans"], minimum["points"]))
        phases.check_replay_identity(store, ledger)
        store_bytes = store.stats().stored_bytes
        store.close(enforce_retention=False)
        store = None
        lap("query")
        twin = phases.library_twin_digest(setup.pcap_path, item, setup.workdir)
        samples.update(phases.service_phase(
            setup.session, setup.pcap, twin, ledger, speed, budget["service"],
            minimum["submits"], minimum["pings"], minimum["queries"]))
        samples.normal["peak_rss_MB"] = [_peak_rss_mb(setup.session.daemon)]
        lap("service")
        sizes = {
            "trace_packets": len(setup.trace), "trace_wire_bytes": setup.trace.total_wire_bytes,
            "trace_flows": len(setup.trace.flows),
            "store_trace_packets": len(setup.store_trace),
            "store_trace_wire_bytes": setup.store_trace.total_wire_bytes,
            "pcap_bytes": len(setup.pcap), "store_bytes": store_bytes,
            "trace_digest": inputs.trace_digest(setup.trace),
        }
    finally:
        if store is not None:
            store.close(enforce_retention=False)
        if setup is not None:
            setup.close(ledger)

    # One latency per stored connection (the median of its visits): the
    # median connection and the slowest hundredth, the largest streams.
    for name, pick in (("query_tuple_p50_ms", statistics.median),
                       ("query_tuple_p99_ms", lambda values: percentile(values, 99))):
        samples.normal[name] = [pick(samples.normal["query_tuple_ms"])]
        samples.raw[name] = [pick(samples.raw["query_tuple_ms"])]
    # About one daemon in five settles, for its whole life, into a thread
    # hand-off pattern that makes every round trip a third slower (README,
    # "command_p50_ms").  Which pattern a run's one daemon lands in would
    # dominate the spread, so the figure is the fastest of the daemons
    # the run has seen: with three, the ordinary pattern 99 times in 100.
    for kind in (samples.normal, samples.raw):
        kind["command_p50_ms"] = [min(
            statistics.median(blocks) for key, blocks in kind.items()
            if key.startswith("command_block_ms")
        )]
    metrics = {
        metric.name: summarize(
            samples.normal[metric.name], metric.unit, samples.raw.get(metric.name))
        for metric in END_TO_END
    }
    metrics["command_p50_ms"]["per_daemon"] = sorted(
        statistics.median(blocks) for key, blocks in samples.normal.items()
        if key.startswith("command_block_ms")
    )
    counts = {name: len(values) for name, values in samples.normal.items()}
    return {"metrics": metrics, "sizes": sizes, "sample_counts": counts,
            "phase_wall_s": phase_wall, "speed": _speed_record(speed),
            "phases": list(item.shares)}


def _speed_record(speed: Speed) -> Dict[str, float]:
    """How the machine ran against the reference during the run."""
    factors = sorted(speed.factors)
    return {
        "reference_seconds": REFERENCE_SECONDS, "readings": len(factors),
        "factor_median": statistics.median(factors),
        "factor_min": factors[0], "factor_max": factors[-1],
    }


class _Traced:
    """What the traced part of a run accumulates."""

    def __init__(self, scale: str) -> None:
        self.counts = TRACED[scale]
        self.tracer = trace.Tracer()
        # The reference loop is read between traced operations, never
        # inside one, so the traced wall is summed operation by operation.
        self.speed = Speed()
        self.raw_wall = 0.0
        #: Normalised walls of the main operation, untraced and traced.
        self.baseline: List[float] = []
        self.walls: List[float] = []
        self.records: List[Dict[str, Any]] = []
        self.extra = {
            "trace_overhead_ratio": 0.0, "service.daemon.overhead_share": 0.0,
            "service.daemon.command_p99_ms": 0.0, "service.daemon.threads": 0.0,
            "service.client.event_wait_s": 0.0,
        }


def _trace_capture(run: _Traced, setup: Setup, item: Workload, ledger: phases.Ledger) -> None:
    counts, speed = run.counts, run.speed
    run.baseline = phases.capture_phase(
        setup.trace, item, ledger, speed, 0.0, counts["baseline"]).normal["capture_wall_s"]
    installed = trace.install(run.tracer)
    try:
        captured = phases.capture_phase(
            setup.trace, item, ledger, speed, 0.0, counts["capture"], warmups=0)
    finally:
        installed.restore()
    run.walls = captured.normal["capture_wall_s"]
    run.raw_wall += sum(captured.raw["capture_wall_s"])


def _trace_record_query(
    run: _Traced, setup: Setup, item: Workload, seed: int, ledger: phases.Ledger
) -> None:
    counts, speed = run.counts, run.speed
    recorded, store = phases.record_phase(
        setup.store_trace, item, ledger, speed, setup.workdir, 0.0, counts["baseline"])
    store.close(enforce_retention=False)
    run.baseline = recorded.normal["record_wall_s"]
    installed = trace.install(run.tracer)
    try:
        recorded, store = phases.record_phase(
            setup.store_trace, item, ledger, speed, setup.workdir, 0.0, counts["record"],
            warmups=0)
        try:
            queried = phases.query_phase(
                store, ledger, speed, seed, 0.0, counts["scans"], counts["points"])
        finally:
            installed.restore()
            installed = None
        phases.check_replay_identity(store, ledger)
        store.close(enforce_retention=False)
    finally:
        if installed is not None:
            installed.restore()
    run.walls = recorded.normal["record_wall_s"]
    run.raw_wall += sum(recorded.raw["record_wall_s"]) + sum(queried.raw["query_wall_s"])


def _trace_service(run: _Traced, setup: Setup, item: Workload, ledger: phases.Ledger) -> None:
    counts, speed = run.counts, run.speed
    twin = phases.library_twin_digest(setup.pcap_path, item, setup.workdir)
    # The daemon is wrapped from its start, so the untraced submits it
    # is compared with need a daemon of their own.
    session = phases.ServiceSession(setup.workdir, "baseline", item)
    try:
        run.baseline = phases.service_phase(
            session, setup.pcap, twin, ledger, speed, 0.0, counts["baseline"], 1, 1
        ).normal["submit_wall_s"]
    finally:
        session.close(ledger)
    dump_path = os.path.join(setup.workdir, "daemon-trace.json")
    session = phases.ServiceSession(setup.workdir, "traced", item, trace_dump=dump_path)
    installed = trace.install(run.tracer)
    try:
        served = phases.service_phase(
            session, setup.pcap, twin, ledger, speed, 0.0, counts["submits"],
            counts["pings"], counts["queries"], warmups=1)
        run.extra["service.daemon.threads"] = float(session.daemon.status("Threads"))
    finally:
        # Stops the subscribers too: no span is open when the table is taken.
        session.close(ledger)
        installed.restore()
    run.walls = served.normal["submit_wall_s"]
    submit_wall = sum(served.raw["submit_wall_s"]) + sum(served.raw["warmup_wall_s"])
    run.raw_wall += (submit_wall + sum(served.raw["command_ms"]) / 1e3
                     + sum(served.raw["remote_query_wall_s"]))
    with open(dump_path) as handle:
        run.records.append(json.load(handle))
    in_daemon = run.records[-1]["table"]["repro.core.api:ScapSocket.start_capture"]
    run.extra["service.daemon.overhead_share"] = 1.0 - in_daemon["total_s"] / submit_wall
    run.extra["service.daemon.command_p99_ms"] = percentile(served.normal["command_ms"], 99)


def _traced(
    item: Workload, seed: int, scale: str, workdir: str, ledger: phases.Ledger,
    trace_out: Optional[str],
) -> Dict[str, Any]:
    run = _Traced(scale)
    setup = Setup(item, seed, scale, os.path.join(workdir, "setup"), False)
    _freeze_inputs()
    try:
        if "capture" in item.primary:
            _trace_capture(run, setup, item, ledger)
        if "record" in item.primary:
            _trace_record_query(run, setup, item, seed, ledger)
        if "service" in item.primary:
            _trace_service(run, setup, item, ledger)
    finally:
        setup.close()
    own = layers.process_record(run.tracer)
    own["span_rows"] = run.tracer.dump()
    run.records.append(own)
    if trace_out is not None:
        _write_trace(trace_out, item, seed, run.tracer, run.records)
    run.extra["trace_overhead_ratio"] = (
        statistics.median(run.walls) / statistics.median(run.baseline))
    run.extra["service.client.event_wait_s"] = own["table"][
        "repro.service.client:EventStream.next_event"]["total_s"]

    merged = layers.merge_records(run.records)
    values = layers.layer_metrics(merged, run.raw_wall, run.extra)
    # Seconds read as they would at reference speed, like every other
    # time this benchmark reports; shares and counts need no scaling.
    factor = statistics.median(run.speed.factors)
    for name in values:
        if name.endswith("_s"):
            values[name] /= factor
    units = {metric.name: metric.unit for metric in per_layer_metrics()}
    attributed = sum(value for name, value in values.items() if name.endswith(".self_share"))
    return {
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
        "traced_wall_s": run.raw_wall / factor, "spans": merged["spans"],
        "attributed_share": attributed, "speed": _speed_record(run.speed),
        "phases": list(item.primary),
    }


def _write_trace(path, item: Workload, seed: int, tracer: trace.Tracer, records) -> None:
    """The span dump: the entry names, each process's entry table and the
    first spans of each thread as ``[thread, entry, parent, start, end]``."""
    payload = {
        "workload": item.name, "seed": seed,
        "entries": [entry.target for _, entry in tracer.entries],
        "span_fields": ["thread", "entry", "parent", "start_ns", "end_ns"],
        "processes": [
            {"table": record["table"], "spans": record["spans"],
             "span_rows": record["span_rows"]}
            for record in records
        ],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, scale: str = "full",
    detail: Optional[str] = None, trace_out: Optional[str] = None,
) -> int:
    """Run one workload and print its result line; returns the exit code."""
    item = workload(name)
    here = os.path.dirname(os.path.abspath(__file__))
    # Relative to the working directory, so the Unix socket path stays
    # short wherever the checkout lives.
    workdir = os.path.join(os.path.relpath(here), ".work", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    # The daemon stages submitted pcaps in the temporary directory; keep
    # that inside the checkout too.
    os.environ["TMPDIR"] = os.path.abspath(workdir)
    tempfile.tempdir = os.environ["TMPDIR"]
    # A terminated run must still stop its daemon: let ``finally`` run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpu = pin_to_fastest_cpu()
    ledger = phases.Ledger()
    started = time.perf_counter()
    try:
        if traced:
            body = _traced(item, seed, scale, workdir, ledger, trace_out)
        else:
            body = _untraced(item, seed, seconds, scale, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using it
    missing = ledger.missing_checks(body["phases"], item.zero_drop)
    if missing:
        print(f"benchmark bug: checks never ran: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            key: {"value": record["value"], "unit": record["unit"]}
            for key, record in body["metrics"].items()
        },
    }
    if detail is not None:
        with open(detail, "w") as handle:
            json.dump({
                "workload": name, "seed": seed, "seconds": seconds, "scale": scale,
                "traced": traced, "wall_s": time.perf_counter() - started, "cpu": cpu,
                "attempted": ledger.attempted, "failed": ledger.failed,
                "failures": ledger.failures, "checks": ledger.checks, **body,
            }, handle)
    for failure in ledger.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py",
        description="Measure one workload; the last line printed is the result.",
    )
    parser.add_argument("--workload", required=True, choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="time the timed phases of an untraced run share")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run: per-layer metrics instead of end-to-end")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the inputs for the self-tests")
    parser.add_argument("--detail", default=None, metavar="FILE",
                        help="also write samples, quartiles, sizes and checks here")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="with --trace 1: write the span dump here")
    args = parser.parse_args(argv)
    return run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
        args.detail, args.trace_out,
    )
