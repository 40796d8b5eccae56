"""Service integration soak: one daemon, eight concurrent clients.

The CI `service-integration` job runs this against a live `ScapDaemon`
on a Unix socket.  Eight clients hammer the daemon concurrently with a
mixed workload — captures, runtime config flips, subscriptions, store
queries, and deliberately malformed frames — and the run only passes
if:

* no client observed a protocol-level failure it didn't provoke,
* every capture's queried bytes match its reported delivered bytes,
* after the clients finish, one client resubmits a round-0 capture, so
  its streams are stored again and a full query takes the planned read;
  that query's digest (every stream's identity, metadata and bytes) is
  what the store directory answers, byte for byte, when it is reopened
  with ``StreamStore`` after the daemon shut down,
* a mid-soak scrape of the daemon's HTTP sidecar returns a **healthy**
  `/healthz` verdict, a ready `/readyz`, and a parseable `/metrics`
  exposition (the daemon runs with observability + telemetry on),
* after the last capture, before shutdown, a `/metrics` scrape is the
  daemon's own Prometheus export byte for byte: every recorded value
  was published by the time its command answered,
* the daemon never runs more than its loop thread and its owner thread
  (at most 3 live `scapd-*` threads, sampled while the clients are
  mid-flight, whatever `--clients` is),
* every subscriber held its events with contiguous `seq` from 0 (no
  event lost between `subscribe` and the first frame, none inside a
  multi-event frame), and exactly as many as the daemon's final
  `delivered` for that client,
* the daemon shuts down gracefully with **balanced ledgers**
  (`enqueued == delivered + dropped` for every client).

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
import socket
import tempfile
import threading
import time

from urllib.request import urlopen

from repro.observability import Observability
from repro.service import ClientQuotas, DaemonConfig, ScapClient, ScapDaemon
from repro.service.protocol import MSG_REQUEST, encode_frame
from repro.store import StreamStore

GBIT = 1e9
#: The loop thread and the owner thread, with one to spare.
MAX_DAEMON_THREADS = 3


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
        held = _Held(client.subscribe(events=["closed"]))
        for round_index in range(rounds):
            if index % 2 == 0:
                client.set_cutoff(50_000 + 1_000 * index)
                client.set_priority(f"tcp and port {80 + index}", 2)
            summary = client.submit_campus(
                flows=6, seed=index * 31 + round_index, rate_bps=GBIT,
                name=f"soak-{index}-{round_index}",
            )
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
        # A malformed zero-length frame must cost a typed error, nothing more.
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(path)
        raw.sendall(b"\x00\x00\x00\x00")
        raw.sendall(encode_frame(MSG_REQUEST, 1, {"command": "ping"}))
        raw.settimeout(5.0)
        assert raw.recv(65536), "no reply after malformed frame"
        raw.close()
        client.close()
        report[index] = {
            "client_id": client.client_id, "events": held.count,
            "seq_gaps": held.gaps, "rounds": rounds,
        }
    except Exception as exc:  # noqa: BLE001 — surfaced in the summary
        captures_done.abort()
        errors.append(f"client {index}: {type(exc).__name__}: {exc}")


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


def _scrape_sidecar(daemon, errors: list) -> dict:
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
    path = os.path.join(run_dir, "scapd.sock")
    store_dir = os.path.join(run_dir, "store")
    obs = Observability(enabled=True)
    daemon = ScapDaemon(
        DaemonConfig(
            store_dir=store_dir,
            quotas=ClientQuotas(max_queued_events=2048),
            http_host="127.0.0.1",
            telemetry_cadence=0.2,
        ),
        observability=obs,
    )
    daemon.add_unix_listener(path)
    daemon.start()

    report: dict = {}
    errors: list = []
    start = time.perf_counter()
    captures_done = threading.Barrier(args.clients)
    threads = [
        threading.Thread(
            target=_soak_client,
            args=(i, path, args.rounds, report, errors, captures_done),
        )
        for i in range(args.clients)
    ]
    for thread in threads:
        thread.start()
    # Scrape the sidecar while the clients are mid-flight: the health
    # verdict must hold *under* the soak's self-inflicted load.
    time.sleep(1.0)
    scrape = _scrape_sidecar(daemon, errors)
    peak_threads = 0
    deadline = time.monotonic() + 600
    while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
        peak_threads = max(peak_threads, sum(
            1 for t in threading.enumerate() if t.name.startswith("scapd-")
        ))
        time.sleep(0.05)
    if peak_threads > MAX_DAEMON_THREADS:
        errors.append(
            f"{peak_threads} live scapd-* threads mid-soak "
            f"(at most {MAX_DAEMON_THREADS} whatever the client count)"
        )
    elapsed = time.perf_counter() - start
    requery = _requery(path)
    final_scrape = _check_final_scrape(daemon, obs, errors)

    telemetry_history = daemon.telemetry.as_dict() if daemon.telemetry else None

    daemon.shutdown()
    _check_reopened(store_dir, requery, errors)
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
        f"peak scapd-* threads: {peak_threads}; requery: {requery['streams']} streams, "
        f"{requery['bytes']} bytes, {requery.get('overlapping_connections', 0)} "
        "re-recorded connections"
    )
    for line in errors:
        print(f"  ERROR {line}")
    return 0 if balanced and not errors and len(report) == args.clients else 1


if __name__ == "__main__":
    raise SystemExit(main())
