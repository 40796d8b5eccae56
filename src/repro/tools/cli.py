"""Command-line interface: ``repro-scap``.

Subcommands:

* ``generate`` — synthesize a campus-like trace and write it as pcap.
* ``inspect``  — summarize a pcap or synthetic trace (optionally
  through a BPF filter).
* ``anonymize`` — prefix-preserving anonymization of a pcap.
* ``capture``  — run a monitoring application (flow statistics, stream
  delivery, or pattern matching) over a pcap file or a synthetic trace
  through the full Scap pipeline at a chosen replay rate.
* ``bench``    — regenerate one of the paper's figures and print its
  table.
* ``compare``  — Scap against the Libnids and Snort baselines on one
  trace across a few replay rates.
* ``analyze``  — evaluate the §7 PPL loss-probability models.
* ``stats``    — run a capture with observability enabled and dump the
  metrics registry (Prometheus text or JSON; see docs/OBSERVABILITY.md).
* ``trace``    — run a capture with observability enabled and dump the
  trace-event ring buffer (pipeline decisions in time order).
* ``profile``  — run a capture with observability enabled and print the
  per-stage breakdown of simulated busy time (service %, p50/p99,
  queue waits — see docs/OBSERVABILITY.md).
* ``timeline`` — reconstruct per-stream lifecycles from the trace ring
  (the stream flight recorder); one five-tuple's full story, or a
  summary line per connection.
* ``scapcheck`` — run the repo-specific static analysis (SC001–SC005,
  SC007) over source paths; its arguments go unchanged to
  ``python -m repro.staticcheck`` (see docs/STATIC_ANALYSIS.md).
* ``record``   — capture a trace under a cutoff and persist the
  delivered streams into an on-disk stream store (docs/STORE.md).
* ``query``    — look up stored streams by five-tuple / time range and
  print (or dump) the reassembled payloads.
* ``replay``   — re-inject a stored query result through a fresh Scap
  socket, closing the record→query→replay loop.
* ``chaos``    — run the deterministic chaos soak: the full pipeline
  under a seeded fault plan with sanitizers on, asserting the
  degradation invariants (docs/FAULT_INJECTION.md).
* ``serve``    — run the capture daemon (service mode; docs/SERVICE.md);
  ``--http`` has its loop thread serve /metrics, /healthz and /readyz.
* ``spans``    — fetch request-span records from a daemon and render
  causal client→daemon→store trees with per-hop timings.
* ``top``      — live terminal view of a daemon's telemetry ring and
  health verdict (throughput, drop rates, queue depths, per-client
  feeds).

Options that several subcommands share are declared once, as parent
parsers in :func:`build_parser`: the packet source (``--pcap`` |
``--flows``, ``--seed``), the replay (``--rate``, ``--cutoff``,
``--memory-mb``) and the daemon endpoint (``--unix`` | ``--tcp``,
``--token``).  Replays build their socket in one place
(``_socket``), and ``main`` runs ``<command>`` by calling
``_cmd_<command>``.

Examples::

    repro-scap generate --flows 500 --out campus.pcap
    repro-scap capture --pcap campus.pcap --rate 2.0 --app match
    repro-scap bench fig04
    repro-scap analyze --rho 0.5 --slots 1 10 20 50
    repro-scap stats --flows 200 --rate 4.0 --format json
    repro-scap trace --flows 200 --rate 6.0 --hook ppl_drop --limit 20
    repro-scap profile --flows 200 --rate 6.0
    repro-scap timeline 10.0.0.1:1234-10.1.0.1:80/tcp --flows 200 --rate 6.0
    repro-scap scapcheck src/repro
    repro-scap record --flows 200 --cutoff 10240 --store /tmp/tm
    repro-scap query --store /tmp/tm --flow 10.0.0.1:1234-10.1.0.1:80/tcp
    repro-scap replay --store /tmp/tm --rate 0.5
    repro-scap chaos --seed 42 --intensity 0.05 --store /tmp/chaos
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

from ..core import ScapSocket
from ..netstack import int_to_ip, read_pcap, write_pcap
from ..observability import ALL_HOOKS
from ..traffic import Trace, campus_mix

__all__ = ["main", "build_parser"]

GBIT = 1e9

#: ``bench`` figures -> their runner in :mod:`repro.bench` (imported on use).
_FIGURES = {
    "fig03": "fig03_flow_statistics",
    "fig04": "fig04_stream_delivery",
    "fig05": "fig05_concurrent_streams",
    "fig06": "fig06_pattern_matching",
    "fig08": "fig08_cutoff_sweep",
    "fig09": "fig09_ppl_priorities",
    "fig10": "fig10_worker_scaling",
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-scap argument parser."""
    # Option groups shared by several subcommands (attached via parents=).
    source_opts = argparse.ArgumentParser(add_help=False)
    pcap_or_flows = source_opts.add_mutually_exclusive_group()
    pcap_or_flows.add_argument("--pcap", help="read packets from a pcap file")
    pcap_or_flows.add_argument("--flows", type=int, default=300,
                               help="or synthesize this many flows")
    source_opts.add_argument("--seed", type=int, default=7)
    replay_opts = argparse.ArgumentParser(add_help=False)
    replay_opts.add_argument("--rate", type=float, default=1.0, help="replay Gbit/s")
    replay_opts.add_argument("--cutoff", type=int, default=None,
                             help="per-stream byte cutoff")
    replay_opts.add_argument("--memory-mb", type=int, default=64)
    capture_opts = [source_opts, replay_opts]
    endpoint_opts = argparse.ArgumentParser(add_help=False)
    unix_or_tcp = endpoint_opts.add_mutually_exclusive_group(required=True)
    unix_or_tcp.add_argument("--unix", metavar="PATH", help="daemon Unix socket path")
    unix_or_tcp.add_argument("--tcp", type=_host_port, metavar="HOST:PORT",
                             help="daemon TCP address")
    endpoint_opts.add_argument("--token", default=None, help="auth token")

    parser = argparse.ArgumentParser(
        prog="repro-scap",
        description="Scap (IMC 2013) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="synthesize a trace to pcap")
    generate.add_argument("--flows", type=int, default=500)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--max-flow-bytes", type=int, default=2_000_000)
    generate.add_argument("--plant-patterns", type=int, default=0,
                          help="plant N synthetic attack patterns")
    generate.add_argument("--out", required=True, help="output pcap path")

    capture = sub.add_parser("capture", parents=capture_opts,
                             help="run a monitoring app over a trace")
    capture.add_argument(
        "--app",
        choices=("flowstats", "delivery", "match", "http"),
        default="delivery",
    )
    capture.add_argument("--workers", type=int, default=1)
    capture.add_argument("--filter", dest="bpf", default="")
    capture.add_argument("--patterns", type=int, default=200,
                         help="pattern count for --app match")
    capture.add_argument("--rules", help="Snort rule file: extract content "
                         "patterns for --app match (like the paper's VRT set)")
    capture.add_argument("--export-flows", help="CSV path for flow records")

    bench = sub.add_parser("bench", help="regenerate a paper figure")
    bench.add_argument("figure", choices=_FIGURES)

    inspect = sub.add_parser("inspect", parents=[source_opts],
                             help="summarize a pcap or synthetic trace")
    inspect.add_argument("--filter", dest="bpf", default="",
                         help="restrict to packets matching a BPF expression")

    anonymize = sub.add_parser(
        "anonymize", help="prefix-preserving anonymization of a pcap"
    )
    anonymize.add_argument("--pcap", required=True)
    anonymize.add_argument("--out", required=True)
    anonymize.add_argument("--key", default="scap-repro-default-key")

    compare = sub.add_parser(
        "compare", help="Scap vs Libnids/Snort side by side on one trace"
    )
    compare.add_argument("--flows", type=int, default=400)
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument("--rates", type=float, nargs="+",
                         default=[1.0, 2.5, 4.0, 6.0], help="Gbit/s points")

    stats = sub.add_parser(
        "stats", parents=capture_opts,
        help="run a capture with observability on; dump metrics"
    )
    stats.add_argument("--format", choices=("prometheus", "json"),
                       default="prometheus", help="exporter format")
    stats.add_argument("--out", help="write the export here instead of stdout")
    stats.add_argument("--check-parity", action="store_true",
                       help="verify the JSON snapshot agrees sample-for-sample "
                            "with the Prometheus export (exit 1 on mismatch)")

    trace_cmd = sub.add_parser(
        "trace", parents=capture_opts,
        help="run a capture with observability on; dump trace events"
    )
    trace_cmd.add_argument("--hook", action="append", default=None,
                           choices=ALL_HOOKS, metavar="HOOK",
                           help="only these hook points (repeatable): "
                                + ", ".join(ALL_HOOKS))
    trace_cmd.add_argument("--stream", default=None, type=_parse_flow,
                           metavar="IP:PORT-IP:PORT/PROTO",
                           help="only events of this connection "
                                "(either direction)")
    trace_cmd.add_argument("--limit", type=int, default=50,
                           help="print at most the last N events")
    trace_cmd.add_argument("--capacity", type=int, default=65536,
                           help="ring-buffer capacity during the run")

    profile = sub.add_parser(
        "profile", parents=capture_opts,
        help="run a capture with observability on; print the per-stage "
             "time breakdown"
    )
    profile.add_argument("--json", action="store_true",
                         help="emit the report as JSON instead of a table")

    timeline_cmd = sub.add_parser(
        "timeline", parents=capture_opts,
        help="reconstruct per-stream lifecycles from the trace ring"
    )
    timeline_cmd.add_argument("flow", nargs="?", default=None, type=_parse_flow,
                              metavar="IP:PORT-IP:PORT/PROTO",
                              help="one connection's full lifecycle "
                                   "(omit to list every reconstructed stream)")
    timeline_cmd.add_argument("--limit", type=int, default=30,
                              help="summary mode: print at most N streams")
    timeline_cmd.add_argument("--capacity", type=int, default=65536,
                              help="ring-buffer capacity during the run")

    # Parsed by repro.staticcheck.runner: main() hands it the arguments.
    sub.add_parser(
        "scapcheck",
        help="repo-specific static analysis (SC001-SC005, SC007)",
        add_help=False,
    )

    record = sub.add_parser(
        "record", parents=capture_opts,
        help="capture a trace into a persistent stream store"
    )
    record.add_argument("--store", required=True, help="store directory")
    record.add_argument("--cores", type=int, default=2,
                        help="writer batches / segment series")
    record.add_argument("--compress", action="store_true",
                        help="zlib-compress record bodies")
    record.add_argument("--segment-mb", type=int, default=16,
                        help="roll segments at this size")
    record.add_argument("--max-bytes", type=int, default=None,
                        help="retention: cap the store's disk footprint")
    record.add_argument("--max-age", type=float, default=None,
                        help="retention: drop records older than this (sim s)")
    record.add_argument("--class-quota", action="append", default=None,
                        type=_class_quota, metavar="BPF=BYTES",
                        help="retention: per-BPF-class payload budget "
                             "(repeatable), e.g. 'port 80=1000000'")

    query = sub.add_parser("query", help="look up streams in a stream store")
    query.add_argument("--store", required=True, help="store directory")
    query.add_argument("--flow", default=None, type=_parse_flow,
                       metavar="IP:PORT-IP:PORT/PROTO",
                       help="five-tuple filter, e.g. 10.0.0.1:1234-10.1.0.1:80/tcp")
    query.add_argument("--start", type=float, default=None,
                       help="earliest record timestamp (sim s)")
    query.add_argument("--end", type=float, default=None,
                       help="latest record timestamp (sim s)")
    query.add_argument("--dump", metavar="DIR", default=None,
                       help="write each stream payload to a file under DIR")
    query.add_argument("--limit", type=int, default=20,
                       help="print at most N streams (0 = all)")

    replay = sub.add_parser(
        "replay", parents=[replay_opts],
        help="re-inject stored streams through a fresh Scap socket"
    )
    replay.add_argument("--store", required=True, help="store directory")
    replay.add_argument("--flow", default=None, type=_parse_flow,
                        metavar="IP:PORT-IP:PORT/PROTO",
                        help="five-tuple filter (default: everything stored)")
    replay.add_argument("--start", type=float, default=None)
    replay.add_argument("--end", type=float, default=None)

    chaos = sub.add_parser(
        "chaos", help="deterministic chaos soak under a seeded fault plan"
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed (same seed, same faults)")
    chaos.add_argument("--intensity", type=float, default=0.05,
                       help="upper bound on the randomized per-plane rates")
    chaos.add_argument("--flows", type=int, default=24,
                       help="soak workload connections")
    chaos.add_argument("--records", type=int, default=48,
                       help="payload records per flow direction")
    chaos.add_argument("--memory-mb", type=int, default=64)
    chaos.add_argument("--store", default=None, metavar="DIR",
                       help="also exercise the store fault plane into DIR")
    chaos.add_argument("--runs", type=int, default=1,
                       help="repeat the identical plan N times and require "
                            "byte-identical fault schedules")
    chaos.add_argument("--schedule", action="store_true",
                       help="print the full injected-fault schedule")

    serve = sub.add_parser(
        "serve", help="run the capture daemon (service mode; docs/SERVICE.md)"
    )
    serve.add_argument("--unix", default=None, metavar="PATH",
                       help="listen on a Unix stream socket at PATH")
    serve.add_argument("--tcp", default=None, type=_host_port, metavar="HOST:PORT",
                       help="listen on a TCP socket (port 0 = ephemeral)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="record captured streams into a store at DIR")
    serve.add_argument("--token", action="append", default=None, metavar="TOKEN",
                       help="require client auth; repeatable for many tokens")
    serve.add_argument("--max-subscriptions", type=int, default=8,
                       help="live subscriptions allowed per client")
    serve.add_argument("--max-queued-events", type=int, default=1024,
                       help="per-client event queue bound (drop-oldest beyond)")
    serve.add_argument("--eviction-drop-limit", type=int, default=None,
                       help="disconnect a client after this many dropped events")
    serve.add_argument("--global-event-budget", type=int, default=None,
                       help="daemon-wide queued-event bound (slowest client pays)")
    serve.add_argument("--memory-mb", type=int, default=64,
                       help="capture memory pool size per submitted run")
    serve.add_argument("--cores", type=int, default=8,
                       help="simulated cores for submitted captures")
    serve.add_argument("--no-control", action="store_true",
                       help="refuse remote shutdown/reload commands")
    serve.add_argument("--observability", action="store_true",
                       help="enable scap_service_* metrics and trace hooks")
    serve.add_argument("--http", default=None, type=_host_port, metavar="HOST:PORT",
                       help="serve /metrics, /healthz, /readyz on this "
                            "address (implies --observability; port 0 = "
                            "ephemeral)")
    serve.add_argument("--telemetry-cadence", type=float, default=1.0,
                       help="seconds between telemetry-ring samples")

    spans_cmd = sub.add_parser(
        "spans", parents=[endpoint_opts],
        help="fetch and render request span trees from a daemon"
    )
    spans_cmd.add_argument("--trace-id", default=None,
                           help="render one causal trace by id")
    spans_cmd.add_argument("--slowest", type=int, default=None, metavar="N",
                           help="render the N slowest retained traces")
    spans_cmd.add_argument("--limit", type=int, default=None,
                           help="fetch at most the last N span records")

    top = sub.add_parser(
        "top", parents=[endpoint_opts], help="live daemon telemetry and health view"
    )
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--count", type=int, default=0,
                     help="stop after N frames (0 = until interrupted)")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit (same as --count 1)")
    top.add_argument("--json", action="store_true",
                     help="emit each frame as one JSON object")

    analyze = sub.add_parser("analyze", help="evaluate the §7 loss models")
    analyze.add_argument("--rho", type=float, default=0.5)
    analyze.add_argument("--rho-high", type=float, default=None,
                         help="enable the two-class model with this high-class load")
    analyze.add_argument("--slots", type=int, nargs="+", default=[5, 10, 20, 50, 100])

    return parser


# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    from ..matching import synthetic_web_attack_patterns

    patterns = (
        synthetic_web_attack_patterns(args.plant_patterns)
        if args.plant_patterns
        else ()
    )
    trace = campus_mix(
        flow_count=args.flows,
        seed=args.seed,
        max_flow_bytes=args.max_flow_bytes,
        patterns=patterns,
        plant_fraction=0.5 if patterns else 0.0,
    )
    count = write_pcap(args.out, trace.packets)
    print(trace.summary())
    print(f"wrote {count} packets to {args.out}")
    if patterns:
        print(f"planted {len(trace.planted_matches)} pattern occurrences")
    return 0


def _load_source(args: argparse.Namespace) -> Trace:
    if args.pcap:
        packets = read_pcap(args.pcap)
        return Trace(packets, name=args.pcap)
    return campus_mix(flow_count=args.flows, seed=args.seed)


def _socket(args: argparse.Namespace, trace, app=None, **kwargs) -> ScapSocket:
    """A socket replaying ``trace`` at ``--rate`` through ``--memory-mb``
    of stream memory, ``--cutoff`` applied and ``app`` attached (a
    :class:`StreamDeliveryApp` when none is given)."""
    from ..apps import StreamDeliveryApp, attach_app

    socket = ScapSocket(
        trace, rate_bps=args.rate * GBIT, memory_size=args.memory_mb << 20, **kwargs
    )
    if args.cutoff is not None:
        socket.set_cutoff(args.cutoff)
    attach_app(socket, StreamDeliveryApp() if app is None else app)
    return socket


def _cmd_capture(args: argparse.Namespace) -> int:
    from ..apps import FlowStatsApp, PatternMatchApp, StreamDeliveryApp
    from ..matching import synthetic_web_attack_patterns

    trace = _load_source(args)
    print(trace.summary())
    if args.app == "flowstats":
        app = FlowStatsApp()
    elif args.app == "match":
        if args.rules:
            from ..matching import extract_contents

            with open(args.rules) as handle:
                patterns = extract_contents(handle, min_len=4)
            print(f"extracted {len(patterns)} content patterns from {args.rules}")
        else:
            patterns = synthetic_web_attack_patterns(args.patterns)
        app = PatternMatchApp(patterns, mode="ac")
    elif args.app == "http":
        from ..apps import HttpMetadataApp

        app = HttpMetadataApp()
    else:
        app = StreamDeliveryApp()
    socket = _socket(args, trace, app)
    if args.bpf:
        socket.set_filter(args.bpf)
    if args.workers != 1:
        socket.set_worker_threads(args.workers)
    result = socket.start_capture(name=f"scap-{args.app}")
    print(result.row())
    print(
        f"delivered {result.delivered_bytes / 1e6:.2f} MB in "
        f"{result.delivered_events} events; "
        f"{result.streams_created} streams; "
        f"{result.discarded_packets} packets discarded early"
    )
    if args.app == "match":
        print(f"pattern matches found: {app.matches_found}")
    if args.app == "http":
        print(
            f"HTTP transactions: {len(app.requests)} requests, "
            f"{len(app.responses)} responses, {app.parse_errors} parse errors"
        )
    if args.app == "flowstats" and args.export_flows:
        with open(args.export_flows, "w") as handle:
            handle.write("src_ip,src_port,dst_ip,dst_port,proto,bytes\n")
            for record in app.records:
                ft = record.five_tuple
                handle.write(
                    f"{int_to_ip(ft.src_ip)},{ft.src_port},"
                    f"{int_to_ip(ft.dst_ip)},{ft.dst_port},"
                    f"{ft.protocol},{record.total_bytes}\n"
                )
        print(f"exported {len(app.records)} flow records to {args.export_flows}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .. import bench

    series = getattr(bench, _FIGURES[args.figure])(bench.get_scale())
    print(bench.format_series(series))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """The paper's headline, one command: stream delivery on Scap vs
    the user-level baselines across a few rates."""
    from ..apps import StreamDeliveryApp
    from ..baselines import LibnidsEngine, Stream5Engine
    from ..bench.scenarios import BenchScale, _buffers, run_baseline, run_scap

    trace = campus_mix(flow_count=args.flows, seed=args.seed)
    ring, memory = _buffers(BenchScale(), trace)
    print(trace.summary())
    print(f"{'rate':>6} {'system':>9} {'drop%':>7} {'cpu%':>7} {'softirq%':>9}")
    for rate in args.rates:
        rate_bps = rate * GBIT
        rows = [("scap", run_scap(trace, rate_bps, StreamDeliveryApp(), memory))]
        for label, engine in (("libnids", LibnidsEngine), ("snort", Stream5Engine)):
            rows.append((label, run_baseline(
                engine, trace, rate_bps, StreamDeliveryApp(), ring, label
            )))
        for label, result in rows:
            print(
                f"{rate:>5.1f}G {label:>9} {result.drop_rate * 100:7.2f} "
                f"{result.user_utilization * 100:7.2f} "
                f"{result.softirq_load * 100:9.2f}"
            )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from ..traffic.inspect import filter_trace, summarize

    trace = _load_source(args)
    if args.bpf:
        trace = filter_trace(trace, args.bpf)
    print(trace.summary())
    print(summarize(trace).format())
    return 0


def _cmd_anonymize(args: argparse.Namespace) -> int:
    from ..traffic.anonymize import anonymize_trace

    packets = anonymize_trace(read_pcap(args.pcap), key=args.key.encode())
    count = write_pcap(args.out, packets)
    print(f"anonymized {count} packets -> {args.out} (prefix-preserving)")
    return 0


def _observed_run(args: argparse.Namespace, trace_capacity: int = 4096):
    """Replay the selected source with observability enabled; return
    the finished socket (its run result is on ``socket.last_result``)."""
    from ..observability import Observability

    obs = Observability(enabled=True, trace_capacity=trace_capacity)
    socket = _socket(args, _load_source(args), observability=obs)
    socket.start_capture(name="scap-observed")
    return socket


def _cmd_stats(args: argparse.Namespace) -> int:
    socket = _observed_run(args)
    fmt = "json" if args.format == "json" else "prometheus"
    text = socket.export_metrics(fmt, indent=2 if fmt == "json" else None)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.format} metrics to {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    if args.check_parity:
        from ..observability import parity_errors
        from ..service.daemon import register_service_metrics

        # Parity must hold for the whole registry, service families
        # included: register them here (idempotent, pre-created label
        # children) so scap_service_* and the telemetry counters are
        # part of the sample-for-sample comparison too.
        register_service_metrics(socket.observability.registry)
        errors = parity_errors(socket.observability.registry)
        if errors:
            for error in errors[:20]:
                print(f"parity: {error}", file=sys.stderr)
            print(
                f"# exporter parity check FAILED: {len(errors)} mismatches",
                file=sys.stderr,
            )
            return 1
        print("# exporter parity check passed")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    socket = _observed_run(args, trace_capacity=args.capacity)
    buffer = socket.observability.trace
    if args.stream:
        from ..observability import TimelineReconstructor

        timeline = TimelineReconstructor(buffer).for_stream(args.stream)
        events = timeline.events if timeline is not None else []
    else:
        events = buffer.events()
    if args.hook:
        events = [event for event in events if event.hook in args.hook]
    shown = events[-args.limit:] if args.limit > 0 else events
    for event in shown:
        print(event.format())
    print(
        f"# {len(shown)} of {len(events)} matching events shown "
        f"({buffer.emitted} emitted, {buffer.overwritten} overwritten)"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json as _json

    socket = _observed_run(args)
    report = socket.profile()
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from ..observability import TimelineReconstructor

    socket = _observed_run(args, trace_capacity=args.capacity)
    reconstructor = TimelineReconstructor(socket.observability.trace)
    if args.flow:
        timeline = reconstructor.for_stream(args.flow)
        if timeline is None:
            print(f"no retained trace events for {_flow_label(args.flow)}")
            return 1
        print(timeline.format())
        return 0
    timelines = reconstructor.timelines()
    shown = timelines[: args.limit] if args.limit > 0 else timelines
    for timeline in shown:
        print(timeline.summary())
    if len(shown) < len(timelines):
        print(f"# ... {len(timelines) - len(shown)} more")
    print(
        f"# {len(timelines)} connections reconstructed "
        f"({reconstructor.unattributed} events unattributed)"
    )
    return 0


def _cmd_scapcheck(argv: Sequence[str]) -> int:
    # Imported here, not at module level: `serve` must not load the analyzer.
    from ..staticcheck.runner import main as scapcheck_main

    return scapcheck_main(argv)


def _parse_flow(text: str):
    """argparse type: ``IP:PORT-IP:PORT/proto`` -> FiveTuple."""
    from ..netstack.addresses import ip_to_int
    from ..netstack.flows import FiveTuple
    from ..netstack.ip import IPProtocol

    body, _, proto_name = text.partition("/")
    try:
        proto = {
            "": IPProtocol.TCP,
            "tcp": IPProtocol.TCP,
            "udp": IPProtocol.UDP,
        }[proto_name.lower()]
        src_part, dst_part = body.split("-")
        src_ip, src_port = src_part.rsplit(":", 1)
        dst_ip, dst_port = dst_part.rsplit(":", 1)
        return FiveTuple(
            src_ip=ip_to_int(src_ip),
            src_port=int(src_port),
            dst_ip=ip_to_int(dst_ip),
            dst_port=int(dst_port),
            protocol=int(proto),
        )
    except (KeyError, ValueError):
        raise argparse.ArgumentTypeError(
            f"bad flow spec {text!r}; expected IP:PORT-IP:PORT/tcp|udp"
        ) from None


def _host_port(text: str) -> Tuple[str, int]:
    """argparse type: ``HOST:PORT`` (host defaults to 127.0.0.1, port to 0)."""
    host, _, port = text.rpartition(":")
    try:
        return host or "127.0.0.1", int(port or 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad address {text!r}; expected HOST:PORT"
        ) from None


def _class_quota(spec: str) -> Tuple[str, int]:
    """argparse type: ``BPF=BYTES`` -> (expression, byte budget)."""
    expression, _, budget = spec.rpartition("=")
    try:
        if expression:
            return expression, int(budget)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad quota {spec!r}; expected BPF=BYTES")


def _flow_label(five_tuple, protocol: Optional[int] = None) -> str:
    """Render a five-tuple back into the CLI's flow-spec syntax."""
    proto = protocol if protocol is not None else five_tuple.protocol
    name = "udp" if proto == 17 else "tcp"
    return (
        f"{int_to_ip(five_tuple.src_ip)}:{five_tuple.src_port}-"
        f"{int_to_ip(five_tuple.dst_ip)}:{five_tuple.dst_port}/{name}"
    )


def _cmd_record(args: argparse.Namespace) -> int:
    from ..apps import StreamRecorder
    from ..store import ClassQuota, RetentionPolicy, StreamStore

    retention = RetentionPolicy(
        max_bytes=args.max_bytes,
        max_age=args.max_age,
        class_quotas=tuple(
            ClassQuota(expression=expression, max_bytes=budget)
            for expression, budget in args.class_quota or ()
        ),
    )
    trace = _load_source(args)
    print(trace.summary())
    store = StreamStore(
        args.store,
        cores=args.cores,
        segment_bytes=args.segment_mb << 20,
        compress=args.compress,
        retention=retention,
    )
    socket = _socket(args, trace)
    socket.set_store(StreamRecorder(store))
    result = socket.start_capture(name="scap-record")
    stats = store.close()
    print(result.row())
    wire = trace.total_wire_bytes
    print(
        f"stored {stats.stored_bytes / 1e6:.2f} MB in {stats.record_count} "
        f"records across {stats.segment_count} segments "
        f"({stats.disk_bytes / 1e6:.2f} MB on disk)"
    )
    if stats.writer_queue_drops or stats.evicted_records:
        print(
            f"write errors lost {stats.writer_queue_drops} records "
            f"({stats.writer_queue_drop_bytes} B); retention evicted "
            f"{stats.evicted_records} records ({stats.evicted_bytes} B)"
        )
    if wire:
        print(
            f"storage reduction: {stats.stored_bytes / 1e6:.2f} MB kept of "
            f"{wire / 1e6:.2f} MB on the wire "
            f"({100.0 * (1 - stats.stored_bytes / wire):.1f}% saved)"
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import os

    from ..store import StreamStore

    store = StreamStore(args.store)
    result = store.query(args.flow, start_ts=args.start, end_ts=args.end)
    store.close(enforce_retention=False)
    print(
        f"{len(result.streams)} streams / {len(result.connections())} connections, "
        f"{result.total_bytes} payload bytes"
    )
    shown = result.streams[: args.limit] if args.limit > 0 else result.streams
    for stream in shown:
        arrow = "->" if stream.direction == 0 else "<-"
        print(
            f"  {_flow_label(stream.client_tuple)} {arrow} "
            f"{len(stream.data)} B @ offset {stream.base_offset} "
            f"[{stream.first_ts:.6f}, {stream.last_ts:.6f}]"
            + (f" ({stream.gap_bytes} B gaps)" if stream.gap_bytes else "")
        )
    if len(shown) < len(result.streams):
        print(f"  ... {len(result.streams) - len(shown)} more")
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        for number, stream in enumerate(result.streams):
            name = f"stream-{number:04d}-dir{stream.direction}.bin"
            with open(os.path.join(args.dump, name), "wb") as handle:
                handle.write(stream.data)
        print(f"dumped {len(result.streams)} payloads to {args.dump}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from ..store import StreamStore

    store = StreamStore(args.store)
    source = store.replay_source(args.flow, start_ts=args.start, end_ts=args.end)
    store.close(enforce_retention=False)
    trace = source.as_trace()
    if not trace.packets:
        print("nothing stored matches the selection; nothing to replay")
        return 1
    print(trace.summary())
    result = _socket(args, trace).start_capture(name="scap-replay")
    print(result.row())
    print(
        f"replayed {result.delivered_bytes / 1e6:.2f} MB in "
        f"{result.delivered_events} events; {result.streams_created} streams"
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from ..faultinject import FaultPlan
    from ..faultinject.soak import run_chaos_soak

    plan = FaultPlan.randomized(seed=args.seed, intensity=args.intensity)
    print(plan.describe())
    reports = []
    for run in range(max(1, args.runs)):
        store_dir = None
        if args.store is not None:
            store_dir = args.store if args.runs <= 1 else f"{args.store}-{run}"
        reports.append(
            run_chaos_soak(
                plan,
                flows=args.flows,
                records_per_direction=args.records,
                memory_size=args.memory_mb << 20,
                store_dir=store_dir,
            )
        )
    report = reports[0]
    print(report.summary())
    print(f"  schedule digest: {report.schedule_digest}")
    status = 0 if report.ok else 1
    for run, other in enumerate(reports[1:], start=2):
        if other.schedule_digest != report.schedule_digest:
            print(f"  FAIL: run {run} diverged — determinism broken "
                  f"({other.schedule_digest} != {report.schedule_digest})")
            status = 1
        elif not other.ok:
            print(f"  FAIL: run {run}: {'; '.join(other.failures)}")
            status = 1
        else:
            print(f"  run {run}: identical fault schedule, invariants hold")
    if args.schedule:
        for line in report.schedule:
            print(f"  {line}")
    return status


def _cmd_analyze(args: argparse.Namespace) -> int:
    from ..analysis import mm1n_loss_probability, two_class_loss_probabilities

    if args.rho_high is None:
        print(f"M/M/1/N loss probability at rho={args.rho}")
        print(f"{'N':>6} {'P(loss)':>14}")
        for slots in args.slots:
            print(f"{slots:>6} {mm1n_loss_probability(args.rho, slots):>14.3e}")
    else:
        print(
            f"Two-class PPL chain: rho1={args.rho} (cumulative), "
            f"rho2={args.rho_high} (high class)"
        )
        print(f"{'N':>6} {'P(loss medium)':>16} {'P(loss high)':>16}")
        for slots in args.slots:
            medium, high = two_class_loss_probabilities(
                args.rho, args.rho_high, slots
            )
            print(f"{slots:>6} {medium:>16.3e} {high:>16.3e}")
    return 0


def _connect_client(args: argparse.Namespace, **kwargs):
    """Open a ScapClient from the shared --unix/--tcp/--token options."""
    from ..service import ScapClient

    if args.unix is not None:
        return ScapClient(unix_path=args.unix, token=args.token, **kwargs)
    host, port = args.tcp
    return ScapClient(host=host, port=port, token=args.token, **kwargs)


def _cmd_spans(args: argparse.Namespace) -> int:
    from ..observability import Observability, SpanTreeReconstructor

    obs = Observability(enabled=True)
    client = _connect_client(
        args, observability=obs, trace_prefix="cli", name="repro-scap-spans"
    )
    # No selector: exercise one traced round trip and render it, merging
    # our local client spans with the daemon's server side of the trace.
    round_trip = args.trace_id is None and args.slowest is None
    try:
        if round_trip:
            client.ping()
            args.trace_id = client.last_trace_id
        sources = client.spans(
            trace_id=args.trace_id, slowest=args.slowest, limit=args.limit
        )
        if round_trip:
            sources = client.local_spans() + sources
    finally:
        client.close()
    reconstructor = SpanTreeReconstructor(sources)
    if not reconstructor.trace_ids():
        print("no span records retained (daemon running without "
              "--observability?)")
        return 1
    wanted, _ = reconstructor.select(args.trace_id, args.slowest)
    for trace_id in wanted:
        print(reconstructor.format_trace(trace_id))
    print(f"# {len(wanted)} trace(s), {len(reconstructor.records())} spans")
    return 0


def _top_frame(client) -> dict:
    """One `top` refresh: forced telemetry sample + health + stats."""
    telemetry = client.call("telemetry", sample=True).header["telemetry"]
    health = client.health()
    stats = client.stats()
    rates: dict = {}
    # The ring's counter rates, label children summed under their family.
    for key, value in telemetry.get("rates", {}).items():
        family = key.split("{", 1)[0]
        rates[family] = rates.get(family, 0.0) + value
    return {
        "verdict": health.get("verdict"),
        "ready": health.get("ready"),
        "reasons": health.get("reasons", []),
        "server": stats.get("server", {}),
        "clients": stats.get("clients", []),
        "rates": rates,
        "samples": len(telemetry.get("samples", [])),
    }


def _print_top_frame(frame: dict) -> None:
    server = frame["server"]
    print(
        f"scap-top  verdict={frame['verdict']}"
        f"{' (ready)' if frame['ready'] else ' (NOT ready)'}  "
        f"clients={server.get('active_clients', '?')}  "
        f"captures={server.get('captures', '?')}  "
        f"samples={frame['samples']}"
    )
    for reason in frame["reasons"]:
        print(f"  ! {reason}")
    rates = frame["rates"]

    def rate(family: str) -> float:
        return rates.get(family, 0.0)

    print(
        f"  tx {rate('scap_service_bytes_sent_total') / 1e6:8.2f} MB/s   "
        f"rx {rate('scap_service_bytes_received_total') / 1e6:8.2f} MB/s   "
        f"events {rate('scap_service_events_delivered_total'):9.1f}/s   "
        f"drops {rate('scap_service_events_dropped_total'):7.1f}/s   "
        f"bad frames {rate('scap_service_bad_frames_total'):6.1f}/s"
    )
    for entry in frame["clients"]:
        ledger = entry.get("ledger", {})
        print(
            f"  client {entry.get('name') or entry.get('client_id')}: "
            f"queued={entry.get('queued', 0)} "
            f"delivered={ledger.get('delivered', 0)} "
            f"dropped={ledger.get('dropped', 0)} "
            f"fed={ledger.get('bytes_sent', 0)} B"
        )


def _cmd_top(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    client = _connect_client(args, name="repro-scap-top")
    count = 1 if args.once else args.count
    shown = 0
    try:
        while True:
            frame = _top_frame(client)
            if args.json:
                print(_json.dumps(frame))
            else:
                _print_top_frame(frame)
            shown += 1
            if count and shown >= count:
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    finally:
        client.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..observability import Observability
    from ..service import ClientQuotas, DaemonConfig, ScapDaemon

    if args.unix is None and args.tcp is None:
        print("serve: need --unix PATH and/or --tcp HOST:PORT", file=sys.stderr)
        return 2
    http_host, http_port = args.http or (None, 0)
    config = DaemonConfig(
        store_dir=args.store,
        auth_tokens=tuple(args.token) if args.token else None,
        quotas=ClientQuotas(
            max_subscriptions=args.max_subscriptions,
            max_queued_events=args.max_queued_events,
            eviction_drop_limit=args.eviction_drop_limit,
        ),
        global_event_budget=args.global_event_budget,
        memory_size=args.memory_mb << 20,
        core_count=args.cores,
        allow_control=not args.no_control,
        http_host=http_host,
        http_port=http_port,
        telemetry_cadence=args.telemetry_cadence,
    )
    # /metrics serves the metrics registry, so HTTP needs one.
    enable_obs = args.observability or args.http is not None
    observability = Observability(enabled=True) if enable_obs else None
    daemon = ScapDaemon(config, observability=observability)
    if args.unix is not None:
        daemon.add_unix_listener(args.unix)
        print(f"listening on unix:{args.unix}")
    if args.tcp is not None:
        bound_host, bound_port = daemon.add_tcp_listener(*args.tcp)
        print(f"listening on tcp:{bound_host}:{bound_port}", flush=True)
    try:
        daemon.start()
        if daemon.http_address is not None:
            print(
                f"serving http://{daemon.http_address[0]}:{daemon.http_address[1]} "
                f"(/metrics /healthz /readyz) from the daemon's loop",
                flush=True,
            )
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.shutdown()
    print("daemon stopped; ledgers balanced:", daemon.ledgers_balanced())
    return 0 if daemon.ledgers_balanced() else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "scapcheck":
        return _cmd_scapcheck(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return globals()[f"_cmd_{args.command}"](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
