"""End-to-end observability: span trees, telemetry, bad-frame ledger.

The acceptance bar for request tracing: after a traced client talks to
a traced daemon, one connected tree — client hop, daemon hop, handler,
store — must be reconstructable from the records each side retained,
through both the Python API and the CLI.
"""

from __future__ import annotations

import json
import socket

from repro.observability import Observability, snapshot
from repro.observability.spans import SpanTreeReconstructor
from repro.service import (
    DaemonConfig,
    FrameReader,
    ScapClient,
    ScapDaemon,
    encode_frame,
    trace_to_pcap_bytes,
)
from repro.service.protocol import MSG_REQUEST, REJECT_CATEGORIES, Frame
from repro.tools.cli import main as cli_main
from repro.traffic import campus_mix


def _start_traced_daemon(tmp_path, **config_kwargs):
    daemon = ScapDaemon(
        DaemonConfig(store_dir=str(tmp_path / "store"), **config_kwargs),
        observability=Observability(enabled=True),
    )
    path = str(tmp_path / "scapd.sock")
    daemon.add_unix_listener(path)
    daemon.start()
    return daemon, path


def _traced_client(path, prefix="t1"):
    return ScapClient(
        unix_path=path,
        name=f"trace-{prefix}",
        observability=Observability(enabled=True),
        trace_prefix=prefix,
    )


def test_ping_produces_a_connected_three_hop_tree(tmp_path):
    daemon, path = _start_traced_daemon(tmp_path)
    client = _traced_client(path)
    try:
        assert client.ping()["pong"] is True
        trace_id = client.last_trace_id
        assert trace_id is not None
        merged = client.spans(trace_id=trace_id) + client.local_spans()
        tree = SpanTreeReconstructor(merged)
        roots = tree.tree(trace_id)
        assert [node.record.name for node in roots] == ["client:ping"]
        server = roots[0].children
        assert [node.record.name for node in server] == ["daemon:ping"]
        handler = server[0].children
        assert [node.record.name for node in handler] == ["handler:ping"]
        assert handler[0].children == []
        kinds = [
            node.record.kind for node in (roots[0], server[0], handler[0])
        ]
        assert kinds == ["client", "server", "internal"]
        # Per-hop durations nest where one thread owns both spans: the
        # handler ran inside the daemon dispatch.  The daemon hop is
        # NOT asserted under the client hop — the daemon closes its
        # span after writing the response, so a preempted reader
        # thread can legitimately out-measure the client's whole call
        # (which is exactly why self_seconds floors at zero).
        client_s, daemon_s, handler_s = (
            node.record.duration for node in (roots[0], server[0], handler[0])
        )
        assert 0.0 <= handler_s <= daemon_s
        assert client_s > 0.0
        # Self time is what the tree view prints for each hop.
        assert roots[0].self_seconds == max(0.0, client_s - daemon_s)
    finally:
        client.close()
        daemon.shutdown()


def test_capture_and_query_hops_join_the_tree(tmp_path):
    daemon, path = _start_traced_daemon(tmp_path)
    client = _traced_client(path, prefix="t2")
    pcap = trace_to_pcap_bytes(campus_mix(flow_count=4, seed=3))
    try:
        client.submit_trace(pcap, rate_bps=1e9, name="traced")
        submit_trace_id = client.last_trace_id
        client.query()
        query_trace_id = client.last_trace_id
        assert submit_trace_id != query_trace_id

        def names(trace_id):
            tree = SpanTreeReconstructor(
                client.spans(trace_id=trace_id) + client.local_spans()
            )
            out = set()

            def walk(node, depth):
                out.add((node.record.name, depth))
                for child in node.children:
                    walk(child, depth + 1)

            for root in tree.tree(trace_id):
                walk(root, 0)
            return out

        assert names(submit_trace_id) >= {
            ("client:submit_trace", 0),
            ("daemon:submit_trace", 1),
            ("handler:submit_trace", 2),
            ("capture:run", 3),
        }
        assert names(query_trace_id) >= {
            ("client:query", 0),
            ("daemon:query", 1),
            ("handler:query", 2),
            ("store:query", 3),
        }
        # The daemon timed the commands into the per-command histogram.
        families = snapshot(daemon._obs.registry)["metrics"]
        buckets = families["scap_service_command_seconds"]["values"]
        counted = {
            entry["labels"]["command"]: entry["count"] for entry in buckets
        }
        assert counted["submit_trace"] == 1
        assert counted["query"] == 1
    finally:
        client.close()
        daemon.shutdown()


def test_spans_and_top_cli_render_against_a_live_daemon(tmp_path, capsys):
    daemon, path = _start_traced_daemon(tmp_path)
    try:
        assert cli_main(["spans", "--unix", path]) == 0
        out = capsys.readouterr().out
        assert "client:ping [client]" in out
        assert "daemon:ping [server]" in out
        assert "handler:ping [internal]" in out
        # Indentation proves connectedness: each hop nests one level in.
        lines = out.splitlines()
        client_line = next(line for line in lines if "client:ping" in line)
        daemon_line = next(line for line in lines if "daemon:ping" in line)
        indent = lambda line: len(line) - len(line.lstrip())  # noqa: E731
        assert indent(daemon_line) == indent(client_line) + 2

        assert cli_main(["top", "--unix", path, "--once", "--json"]) == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["verdict"] == "healthy"
        assert frame["ready"] is True
        assert frame["server"]["captures"] == 0
    finally:
        daemon.shutdown()


def test_top_rates_hold_counters_only(tmp_path, capsys):
    """A gauge that rose between the last two samples is a level, not a
    rate: `top --json` reports only counter families."""
    daemon, path = _start_traced_daemon(tmp_path)
    clients = [ScapClient(unix_path=path, name=f"c{i}") for i in range(3)]
    try:
        clients[0].call("telemetry", sample=True)
        clients.extend(ScapClient(unix_path=path, name=f"d{i}") for i in range(3))
        clients[0].submit_campus(flows=4, seed=1, rate_bps=1e9)
        assert cli_main(["top", "--unix", path, "--once", "--json"]) == 0
        rates = json.loads(capsys.readouterr().out)["rates"]
        gauges = {
            name for name, family in daemon._obs.registry.families.items()
            if family.kind == "gauge"
        }
        assert "scap_service_active_clients" in gauges
        assert rates and not gauges & set(rates)
        assert rates["scap_service_requests_total"] > 0
    finally:
        for client in clients:
            client.close()
        daemon.shutdown()


def test_bad_frame_counters_reconcile_by_category(tmp_path):
    daemon, path = _start_traced_daemon(tmp_path, max_frame_bytes=4096)
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(path)
    try:
        # One of each structural category, a ping between them so the
        # consecutive-rejection hang-up never triggers and each ping
        # reply proves the previous frame was fully consumed.
        reader = FrameReader()
        replies = []
        request_id = 0

        def ping():
            nonlocal request_id
            request_id += 1
            raw.sendall(encode_frame(MSG_REQUEST, request_id, {"command": "ping"}))
            while not any(
                isinstance(r, Frame) and r.request_id == request_id
                for r in replies
            ):
                data = raw.recv(65536)
                assert data, "daemon dropped the connection"
                replies.extend(reader.feed(data))

        raw.sendall(b"\x00\x00\x00\x00")                    # zero_length
        ping()
        raw.sendall((8).to_bytes(4, "big") + b"garbage!")   # undecodable
        ping()
        oversized = 5000  # > max_frame_bytes; body is drained, then rejected
        raw.sendall(oversized.to_bytes(4, "big") + b"\x00" * oversized)
        ping()
        raw.sendall((8).to_bytes(4, "big") + b"!invalid")   # undecodable again
        ping()

        counters = snapshot(daemon._obs.registry)["metrics"]
        by_category = {
            entry["labels"]["reason"]: entry["value"]
            for entry in counters["scap_service_bad_frames_total"]["values"]
        }
        assert by_category["zero_length"] == 1
        assert by_category["oversized"] == 1
        assert by_category["undecodable"] == 2
        assert set(by_category) == set(REJECT_CATEGORIES)
        # The per-reason total matches the untyped rejection counter.
        rejected = counters["scap_service_frames_rejected_total"]["values"]
        assert sum(e["value"] for e in rejected) == sum(by_category.values())
    finally:
        raw.close()
        daemon.shutdown()
