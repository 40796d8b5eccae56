"""Service integration soak: one daemon, eight concurrent clients.

The CI `service-integration` job runs this against a live `ScapDaemon`
on a Unix socket.  Eight clients hammer the daemon concurrently with a
mixed workload — captures, runtime config flips, subscriptions, store
queries, and deliberately malformed frames — while one more subscriber
hangs up in the middle of round 0's events, and the run only passes
if:

* no client observed a protocol-level failure it didn't provoke (odd
  clients also filter their subscription and install, then remove, a
  keep-filter around each capture),
* each client's zero-length frame and frame with an undecodable JSON
  header are each answered with a `bad_frame` error, and the ping sent
  behind them is answered on the same connection,
* the subscriber that hangs up held an event first, so it left while
  events were still fanning out to it,
* every capture's queried bytes match its reported delivered bytes,
* after the clients finish, one client resubmits a round-0 capture, so
  its streams are stored again and a full query takes the planned read;
  that query's digest (every stream's identity, metadata and bytes) is
  what the store directory answers, byte for byte, when it is reopened
  with ``StreamStore`` after the daemon shut down,
* a mid-soak scrape of the daemon's HTTP endpoints returns a **healthy**
  `/healthz` verdict, a ready `/readyz`, and a parseable `/metrics`
  exposition (the daemon runs with observability + telemetry on),
* after the last capture, before shutdown, a `/metrics` scrape is the
  daemon's own Prometheus export byte for byte: every recorded value
  was published by the time its command answered,
* the daemon never runs a thread but its loop thread and its owner
  thread: every live thread the soak did not start itself (its client
  threads, and the drainer threads its `ScapClient`s start) is counted,
  sampled while the clients are mid-flight and while the mid-soak
  scrape runs, whatever `--clients` is,
* every subscriber held its events with contiguous `seq` from 0 (no
  event lost between `subscribe` and the first frame, none inside a
  multi-event frame), and exactly as many as the daemon's final
  `delivered` for that client,
* the daemon shuts down gracefully with **balanced ledgers**
  (`enqueued == delivered + dropped` for every client),
* every record left in the daemon's trace ring is a span: requests,
  dropped events and evictions are counted by metrics and ledgers, so
  the ring keeps what the `spans` command reads (the report gives how
  many records it overwrote, `obs.trace.overwritten`).

The telemetry ring's full JSON history is written next to the report
(`--telemetry-out`) so CI can upload it as a forensics artifact.

Usage::

    PYTHONPATH=src python benchmarks/service_soak.py [--clients 8] [--rounds 3]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import socket
import tempfile
import threading
import time

from urllib.request import urlopen

from repro.observability import HOOK_SPAN, Observability
from repro.service import ClientQuotas, DaemonConfig, ScapClient, ScapDaemon
from repro.service.protocol import (
    ERR_BAD_FRAME,
    MSG_ERROR,
    MSG_REQUEST,
    MSG_RESPONSE,
    FrameReader,
    encode_frame,
)
from repro.store import StreamStore

GBIT = 1e9
#: The threads the daemon runs, whatever its clients and HTTP peers do.
DAEMON_THREADS = ("scapd-loop", "scapd-owner")
#: The name of the thread a ``ScapClient`` reads its subscriptions on.
CLIENT_DRAINER = "scap-client-drain"


class _Held:
    """The events one subscriber holds, and the gaps in their ``seq``."""

    def __init__(self, stream):
        self.stream = stream
        self.count = 0
        self.gaps = 0
        self._next_seq = 0

    def drain(self, timeout: float) -> None:
        while (frame := self.stream.next_event(timeout=timeout)) is not None:
            self.count += 1
            if frame.header["seq"] != self._next_seq:
                self.gaps += 1
            self._next_seq = frame.header["seq"] + 1


def _soak_client(
    index: int, path: str, rounds: int, report: dict, errors: list,
    captures_done: threading.Barrier,
):
    try:
        client = ScapClient(unix_path=path, name=f"soak-{index}")
        # Odd clients filter their subscription and, each round, keep
        # only web traffic while their capture runs: the daemon's filter
        # union and its per-subscription match run under concurrency.
        flow_filter = "port 80 or 443" if index % 2 else ""
        held = _Held(client.subscribe(events=["closed"], flow_filter=flow_filter))
        for round_index in range(rounds):
            keep_filter = None
            if index % 2 == 0:
                client.set_cutoff(50_000 + 1_000 * index)
                client.set_priority(f"tcp and port {80 + index}", 2)
            else:
                keep_filter = client.install_filter(f"tcp port {80 if index % 4 == 1 else 443}")
            summary = client.submit_campus(
                flows=6, seed=index * 31 + round_index, rate_bps=GBIT,
                name=f"soak-{index}-{round_index}",
            )
            if keep_filter is not None:
                client.remove_filter(keep_filter)
            streams = client.query()
            queried = sum(len(s["data"]) for s in streams)
            if queried < summary["delivered_bytes"]:
                errors.append(
                    f"client {index}: queried {queried} < "
                    f"delivered {summary['delivered_bytes']}"
                )
            assert client.stats()["server"]["captures"] >= 1
            held.drain(timeout=0.5)
        # Once every client's captures are done nothing more is enqueued:
        # hold what the daemon has not yet dropped before hanging up.
        captures_done.wait(timeout=600)
        ledger = next(
            entry["ledger"] for entry in client.stats()["clients"]
            if entry["client_id"] == client.client_id
        )
        deadline = time.monotonic() + 60
        while held.count < ledger["enqueued"] - ledger["dropped"] and time.monotonic() < deadline:
            held.drain(timeout=0.5)
        _send_garbage(path)
        client.close()
        report[index] = {
            "client_id": client.client_id, "events": held.count,
            "seq_gaps": held.gaps, "rounds": rounds,
        }
    except Exception as exc:  # noqa: BLE001 — surfaced in the summary
        captures_done.abort()
        errors.append(f"client {index}: {type(exc).__name__}: {exc}")


def _send_garbage(path: str) -> None:
    """A zero-length frame and one whose JSON header does not decode must
    each cost a typed ``bad_frame`` error, nothing more: the ping sent
    behind them is answered on the same connection."""
    ping = encode_frame(MSG_REQUEST, 1, {"command": "ping"})
    # The header is the frame's last byte run: cut its closing brace.
    undecodable = ping[:-1] + b"!"
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(5.0)
    try:
        raw.connect(path)
        raw.sendall(b"\x00\x00\x00\x00" + undecodable + ping)
        reader, frames = FrameReader(), []
        while not any(f.msg_type == MSG_RESPONSE for f in frames):
            data = raw.recv(65536)
            assert data, "the daemon hung up on malformed frames"
            frames.extend(reader.feed(data))
    finally:
        raw.close()
    errors = [f.header["code"] for f in frames if f.msg_type == MSG_ERROR]
    assert errors == [ERR_BAD_FRAME] * 2, f"malformed frames answered with {errors}"
    assert frames[-1].header.get("pong"), f"ping answered with {frames[-1].header}"


def _hang_up(stream, errors: list) -> None:
    """Hang up as soon as the first of round 0's events arrives, while the
    rest are still fanning out to this subscriber."""
    try:
        if stream.next_event(timeout=120) is None:
            errors.append("hang-up: no event arrived before it hung up")
    except Exception as exc:  # noqa: BLE001 — surfaced in the summary
        errors.append(f"hang-up: {type(exc).__name__}: {exc}")
    finally:
        stream.client.close()


def _streams_digest(rows) -> str:
    """SHA-256 over ``(flow, direction, first_ts, last_ts, base_offset,
    gap_bytes, data)`` rows, in answer order."""
    sha = hashlib.sha256()
    for flow, direction, first_ts, last_ts, base_offset, gap_bytes, data in rows:
        head = (tuple(int(part) for part in flow), int(direction), first_ts, last_ts,
                base_offset, gap_bytes, len(data))
        sha.update(repr(head).encode())
        sha.update(data)
    return sha.hexdigest()


def _requery(path: str) -> dict:
    """Resubmit client 0's round-0 capture, then take one full query."""
    client = ScapClient(unix_path=path, name="soak-requery")
    try:
        client.submit_campus(flows=6, seed=0, rate_bps=GBIT, name="soak-requery")
        streams = client.query()
    finally:
        client.close()
    return {
        "streams": len(streams),
        "bytes": sum(len(stream["data"]) for stream in streams),
        "digest": _streams_digest(
            (stream["flow"], stream["direction"], stream["first_ts"], stream["last_ts"],
             stream["base_offset"], stream["gap_bytes"], stream["data"])
            for stream in streams
        ),
    }


def _check_reopened(store_dir: str, requery: dict, errors: list) -> None:
    """The shut-down daemon's store, reopened, answers what it served."""
    store = StreamStore(store_dir)
    try:
        requery["overlapping_connections"] = len(store.index.overlapping)
        if not store.index.overlapping:
            errors.append("requery: the resubmitted capture overlaps nothing stored")
        digest = _streams_digest(
            (stream.client_tuple, stream.direction, stream.first_ts, stream.last_ts,
             stream.base_offset, stream.gap_bytes, stream.data)
            for stream in store.query()
        )
    finally:
        store.close(enforce_retention=False)
    if digest != requery["digest"]:
        errors.append("requery: the reopened store answers differently from the daemon")


def _scrape_http(daemon, errors: list) -> dict:
    """Mid-soak HTTP checks: /metrics parses, /healthz healthy, /readyz."""
    host, port = daemon.http_address
    base = f"http://{host}:{port}"
    out: dict = {}
    with urlopen(f"{base}/metrics", timeout=10) as response:
        body = response.read()
        out["metrics_bytes"] = len(body)
        families = {
            line.split()[2]
            for line in body.decode("utf-8").splitlines()
            if line.startswith("# TYPE ")
        }
        for family in ("scap_service_requests_total",
                       "scap_service_command_seconds",
                       "scap_service_telemetry_samples_total"):
            if family not in families:
                errors.append(f"scrape: {family} missing from /metrics")
    with urlopen(f"{base}/healthz", timeout=10) as response:
        health = json.loads(response.read())
        out["health"] = health
        if health["verdict"] != "healthy":
            errors.append(
                f"mid-soak /healthz verdict {health['verdict']!r}: "
                f"{health['reasons']}"
            )
    with urlopen(f"{base}/readyz", timeout=10) as response:
        if not json.loads(response.read())["ready"]:
            errors.append("mid-soak /readyz not ready")
    return out


def _check_final_scrape(daemon, obs, errors: list) -> dict:
    """After the last capture: ``/metrics`` equals the in-process export.

    The telemetry timer may move the registry between two reads, so a
    comparison counts only when the export is the same before and after
    the scrape; a registry that never holds still is an error too.
    """
    host, port = daemon.http_address
    for attempt in range(1, 21):
        before = obs.export_prometheus()
        with urlopen(f"http://{host}:{port}/metrics", timeout=10) as response:
            scraped = response.read().decode("utf-8")
        if obs.export_prometheus() == before:
            if scraped != before:
                errors.append("final scrape: /metrics differs from the daemon's export")
            return {"attempts": attempt, "bytes": len(scraped)}
        time.sleep(0.05)
    errors.append("final scrape: the registry never held still across a scrape")
    return {"attempts": attempt, "bytes": 0}


def main(argv=None) -> int:
    """Run the soak; exit non-zero on any client error or ledger drift."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", default=None, help="optional JSON report path")
    parser.add_argument("--telemetry-out", default=None,
                        help="write the telemetry ring's JSON history here")
    args = parser.parse_args(argv)

    run_dir = tempfile.mkdtemp(prefix="scap-soak-")
    try:
        obs = Observability(enabled=True)
        daemon = ScapDaemon(
            DaemonConfig(
                store_dir=os.path.join(run_dir, "store"),
                quotas=ClientQuotas(max_queued_events=2048),
                http_host="127.0.0.1",
                telemetry_cadence=0.2,
            ),
            observability=obs,
        )
        try:
            return _soak(args, daemon, obs, run_dir)
        finally:
            daemon.shutdown()  # idempotent: a soak that ran to its end already stopped it
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _soak(args, daemon, obs: Observability, run_dir: str) -> int:
    """The soak against ``daemon``, whose files live in ``run_dir``."""
    path = os.path.join(run_dir, "scapd.sock")
    store_dir = daemon.config.store_dir
    daemon.add_unix_listener(path)
    daemon.start()

    report: dict = {}
    errors: list = []
    start = time.perf_counter()
    captures_done = threading.Barrier(args.clients)
    # Subscribed before any capture runs, and only to `closed` like the
    # clients, so the queue it abandons stays small.
    hang_up = ScapClient(unix_path=path, name="hang-up").subscribe(events=["closed"])
    threads = [
        threading.Thread(
            target=_soak_client,
            args=(i, path, args.rounds, report, errors, captures_done),
        )
        for i in range(args.clients)
    ]
    hanging = threading.Thread(target=_hang_up, args=(hang_up, errors))
    hanging.start()
    for thread in threads:
        thread.start()
    # Scrape the HTTP endpoints while the clients are mid-flight: the
    # health verdict must hold *under* the soak's self-inflicted load.
    scrape: dict = {}
    scraping = threading.Thread(target=lambda: scrape.update(_scrape_http(daemon, errors)))
    own = {threading.current_thread(), scraping, hanging, *threads}
    daemon_threads: set = set()
    peak_threads = 0
    deadline = time.monotonic() + 600
    scrape_at = time.monotonic() + 1.0
    while time.monotonic() < deadline:
        clients_running = any(t.is_alive() for t in (hanging, *threads))
        if scraping.ident is None:
            if time.monotonic() >= scrape_at or not clients_running:
                scraping.start()
        elif not clients_running and not scraping.is_alive():
            break
        names = [
            t.name for t in threading.enumerate() if t not in own and t.name != CLIENT_DRAINER
        ]
        peak_threads = max(peak_threads, len(names))
        daemon_threads.update(names)
        time.sleep(0.001 if scraping.is_alive() else 0.05)
    if not scrape:
        errors.append("the mid-soak scrape did not finish")
    if peak_threads > len(DAEMON_THREADS) or daemon_threads - set(DAEMON_THREADS):
        errors.append(
            f"the daemon ran {peak_threads} threads at once, named "
            f"{sorted(daemon_threads)} (only {', '.join(DAEMON_THREADS)} are allowed)"
        )
    elapsed = time.perf_counter() - start
    requery = _requery(path)
    final_scrape = _check_final_scrape(daemon, obs, errors)

    daemon.shutdown()
    telemetry_history = daemon.telemetry.as_dict() if daemon.telemetry else None
    _check_reopened(store_dir, requery, errors)
    foreign = sorted({record.hook for record in obs.trace} - {HOOK_SPAN})
    if foreign:
        errors.append(f"trace ring holds records that are not spans: {foreign}")
    balanced = daemon.ledgers_balanced()
    ledgers = {
        entry["name"]: entry["ledger"] for entry in daemon.final_ledgers.values()
    }
    for index, entry in sorted(report.items()):
        delivered = daemon.final_ledgers[entry["client_id"]]["ledger"]["delivered"]
        if entry["seq_gaps"]:
            errors.append(f"client {index}: {entry['seq_gaps']} gaps in event seq")
        if entry["events"] != delivered:
            errors.append(
                f"client {index}: held {entry['events']} events, "
                f"daemon delivered {delivered}"
            )
    payload = {
        "clients": args.clients,
        "rounds": args.rounds,
        "seconds": elapsed,
        "captures": sum(r["rounds"] for r in report.values()),
        "events": sum(r["events"] for r in report.values()),
        "errors": errors,
        "ledgers_balanced": balanced,
        "ledgers": ledgers,
        "scrape": scrape,
        "final_scrape": final_scrape,
        "peak_daemon_threads": peak_threads,
        "trace_records": len(obs.trace),
        "trace_overwritten": obs.trace.overwritten,
        "requery": requery,
        "telemetry_samples": (
            telemetry_history["sampled"] if telemetry_history else 0
        ),
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.telemetry_out and telemetry_history is not None:
        with open(args.telemetry_out, "w") as handle:
            json.dump(telemetry_history, handle, indent=2)
            handle.write("\n")
    print(
        f"soak: {args.clients} clients x {args.rounds} rounds in {elapsed:.1f}s; "
        f"{payload['events']} events; {len(errors)} errors; "
        f"ledgers balanced: {balanced}; mid-soak verdict: "
        f"{scrape.get('health', {}).get('verdict', 'unscraped')}; "
        f"final /metrics compared with the export after {final_scrape['attempts']} "
        "scrape(s); "
        f"{payload['telemetry_samples']} telemetry samples; "
        f"peak daemon threads: {peak_threads}; trace ring: {len(obs.trace)} records, "
        f"{obs.trace.overwritten} overwritten; requery: {requery['streams']} streams, "
        f"{requery['bytes']} bytes, {requery.get('overlapping_connections', 0)} "
        "re-recorded connections"
    )
    for line in errors:
        print(f"  ERROR {line}")
    return 0 if balanced and not errors and len(report) == args.clients else 1


if __name__ == "__main__":
    raise SystemExit(main())
