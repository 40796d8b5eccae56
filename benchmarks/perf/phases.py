"""The four timed phases and the checks that ride on them.

* capture — ``ScapSocket.start_capture`` with ``StreamDeliveryApp``;
* record  — the same capture recording into a fresh ``StreamStore``;
* query   — full scans and point queries on the last recorded store;
* service — the shipped daemon in its own process over a Unix socket:
  ``submit_trace``, event fan-out to one subscriber, ``ping``, ``query``.

All load is closed loop: the next operation starts when the previous
one has returned.  Every operation is counted in a :class:`Ledger`,
every output is checked, and every time is speed-normalised
(``speed.py``).  A phase returns :class:`Samples`: the normalised
samples of each metric and the raw ones beside them.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps import StreamDeliveryApp, attach_app
from repro.apps.recorder import StreamRecorder
from repro.core import ScapSocket
from repro.netstack.pcap import read_pcap
from repro.results import RunResult
from repro.service import ScapClient
from repro.store.store import StreamStore
from repro.traffic.trace import Trace

from .spec import Workload
from .speed import Speed

__all__ = [
    "Ledger",
    "Samples",
    "repeat",
    "fresh_socket",
    "capture_pass",
    "capture_phase",
    "record_phase",
    "query_phase",
    "check_replay_identity",
    "Daemon",
    "Subscriber",
    "ServiceSession",
    "ping_block",
    "service_phase",
    "streams_digest",
    "fanout_rate",
    "unbalanced_clients",
]

#: Every check a run of each phase must execute; a run that skips one
#: exits non-zero (see ``Ledger.missing_checks``).
PHASE_CHECKS = {
    "capture": ("determinism", "zero_drop"),
    "record": ("determinism", "zero_drop", "store_ledger"),
    "query": ("point_query_bytes", "replay_identity"),
    "service": ("daemon_query_bytes", "event_seq", "event_count", "session_ledgers",
                "daemon_exit"),
}

#: Longest wait for an expected event or for the daemon to come up or
#: go down.  A wait that runs out is a failed operation, never a sample.
WAIT_SECONDS = 30.0

#: Point queries and pings timed under one pair of reference readings.
QUERY_BLOCK = 16
PING_BLOCK = 200


class Ledger:
    """Operations attempted and failed, and which checks ran."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, int] = {}
        self.failures: List[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, name: str, ok: bool, detail: str = "", count: int = 1) -> bool:
        """Record that check ``name`` ran; a false ``ok`` fails ``count``
        operations."""
        self.checks[name] = self.checks.get(name, 0) + 1
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")
        return ok

    def missing_checks(self, phases: Sequence[str], zero_drop: bool) -> List[str]:
        wanted = {name for phase in phases for name in PHASE_CHECKS[phase]}
        if not zero_drop:
            wanted.discard("zero_drop")
        return sorted(wanted - set(self.checks))


class Samples:
    """Per-metric samples: speed-normalised, and raw beside them."""

    def __init__(self) -> None:
        self.normal: Dict[str, List[float]] = {}
        self.raw: Dict[str, List[float]] = {}

    def add_rate(self, name: str, amount: float, seconds: float, factor: float) -> None:
        """``amount`` per second: a slower machine (factor > 1) is
        credited the rate it would have had at reference speed."""
        self.raw.setdefault(name, []).append(amount / seconds)
        self.normal.setdefault(name, []).append(amount / seconds * factor)

    def add_time(self, name: str, value: float, factor: float) -> None:
        self.raw.setdefault(name, []).append(value)
        self.normal.setdefault(name, []).append(value / factor)

    def update(self, other: "Samples") -> None:
        self.normal.update(other.normal)
        self.raw.update(other.raw)


def repeat(op: Callable[[], Any], budget_s: float, min_count: int) -> List[Any]:
    """Run ``op`` until ``budget_s`` has passed and ``min_count`` is met."""
    out = []
    deadline = time.perf_counter() + budget_s
    while len(out) < min_count or time.perf_counter() < deadline:
        out.append(op())
    return out


# ----------------------------------------------------------------------
# capture / record
# ----------------------------------------------------------------------
def _fingerprint(result: RunResult) -> Tuple:
    return (
        result.offered_packets, result.offered_bytes, result.dropped_packets,
        result.discarded_packets, result.nic_filter_drops, result.delivered_bytes,
        result.delivered_events, result.streams_created,
    )


def fresh_socket(
    trace: Trace, workload: Workload, store: Optional[StreamStore] = None, app: bool = True
) -> ScapSocket:
    """A socket in the workload's configuration, ready to capture.

    With ``store`` the capture records through a ``StreamRecorder``;
    ``start_capture`` then returns after ``store.flush()``.
    """
    gc.collect()
    socket = ScapSocket(
        trace, memory_size=workload.memory_size, rate_bps=workload.rate_bps
    )
    if workload.cutoff is not None:
        socket.set_cutoff(workload.cutoff)
    if app:
        attach_app(socket, StreamDeliveryApp())
    if store is not None:
        socket.set_store(StreamRecorder(store))
    return socket


def capture_pass(
    trace: Trace, workload: Workload, speed: Speed, store: Optional[StreamStore] = None
) -> Tuple[RunResult, float, float, float]:
    """One capture on a fresh socket: ``(result, wall_s, cpu_s, factor)``."""
    return speed.timed(fresh_socket(trace, workload, store).start_capture)


def check_pass(
    ledger: Ledger, workload: Workload, result: RunResult, reference: Tuple
) -> None:
    """One capture pass is one operation: its counters must equal the
    first pass's, and a zero-drop workload must drop nothing."""
    ledger.attempt()
    ok = ledger.check(
        "determinism", _fingerprint(result) == reference,
        f"{_fingerprint(result)} != first pass {reference}",
    )
    if workload.zero_drop and ok:
        ledger.check("zero_drop", result.dropped_packets == 0,
                     f"{result.dropped_packets} packets dropped")


def capture_phase(
    trace: Trace, workload: Workload, ledger: Ledger, speed: Speed, budget_s: float,
    min_passes: int, warmups: int = 2,
) -> Samples:
    samples = Samples()
    reference: Optional[Tuple] = None

    def one(timed: bool) -> None:
        nonlocal reference
        result, wall, cpu, factor = capture_pass(trace, workload, speed)
        reference = reference or _fingerprint(result)
        check_pass(ledger, workload, result, reference)
        if timed:
            samples.add_rate("capture_pkts_per_s", result.offered_packets, wall, factor)
            samples.add_rate("capture_goodput_MBps", result.delivered_bytes / 1e6, wall, factor)
            samples.add_time("capture_cpu_us_per_pkt",
                             cpu / result.offered_packets * 1e6, factor)
            samples.add_time("capture_wall_s", wall, factor)

    for _ in range(warmups):
        one(False)
    repeat(lambda: one(True), budget_s, min_passes)
    return samples


def check_store_ledger(ledger: Ledger, stats) -> None:
    """Every byte offered to the writer was written; none was dropped."""
    ledger.check(
        "store_ledger",
        stats.writer_queue_drops == 0
        and stats.enqueued_bytes == stats.written_bytes + stats.writer_queue_drop_bytes,
        f"enqueued {stats.enqueued_bytes} written {stats.written_bytes} "
        f"dropped {stats.writer_queue_drop_bytes}",
    )


def record_phase(
    trace: Trace, workload: Workload, ledger: Ledger, speed: Speed, workdir: str,
    budget_s: float, min_passes: int, warmups: int = 1,
) -> Tuple[Samples, StreamStore]:
    """Timed record passes, each into a fresh store; returns the samples
    and the last store (open)."""
    samples = Samples()
    store: Optional[StreamStore] = None
    reference: Optional[Tuple] = None
    directory = os.path.join(workdir, "store")

    def one(timed: bool) -> None:
        nonlocal store, reference
        if store is not None:
            store.close(enforce_retention=False)
        shutil.rmtree(directory, ignore_errors=True)
        # One writer queue, so the store is one segment series and a
        # point query's cost does not depend on which series a seed
        # happens to put the connection in.
        store = StreamStore(directory, cores=1, compress=False)
        result, wall, _, factor = capture_pass(trace, workload, speed, store=store)
        reference = reference or _fingerprint(result)
        check_pass(ledger, workload, result, reference)
        stats = store.stats()
        check_store_ledger(ledger, stats)
        if timed:
            samples.add_rate("store_record_MBps", stats.written_bytes / 1e6, wall, factor)
            samples.add_time("record_wall_s", wall, factor)

    for _ in range(warmups):
        one(False)
    repeat(lambda: one(True), budget_s, min_passes)
    return samples, store


# ----------------------------------------------------------------------
# query
# ----------------------------------------------------------------------
def _by_connection(result) -> Dict[Tuple, Dict[int, bytes]]:
    streams: Dict[Tuple, Dict[int, bytes]] = {}
    for stream in result.streams:
        streams.setdefault(tuple(stream.client_tuple.canonical()), {})[
            stream.direction] = stream.data
    return streams


def streams_digest(streams: Sequence[Tuple[Sequence[int], int, bytes]]) -> str:
    """Order-independent digest of ``(tuple, direction, data)`` streams."""
    # Plain ints: the daemon sends tuples as JSON lists, the library as
    # FiveTuple with an enum protocol.
    keyed = sorted(
        (tuple(int(part) for part in five_tuple), int(direction), data)
        for five_tuple, direction, data in streams
    )
    sha = hashlib.sha256()
    for five_tuple, direction, data in keyed:
        sha.update(repr((five_tuple, direction, len(data))).encode())
        sha.update(data)
    return sha.hexdigest()


def check_replay_identity(store, ledger: Ledger) -> None:
    """record → query → replay: the stored payloads, re-injected through
    a fresh socket, must be delivered byte for byte (untimed, once)."""
    ledger.attempt()
    stored = {
        (tuple(s.client_tuple), s.direction): s.data for s in store.query().streams
    }
    replayed: Dict[Tuple, bytearray] = {}

    def collect(sd) -> None:
        key = sd.five_tuple if sd.direction == 0 else sd.five_tuple.reversed()
        replayed.setdefault((tuple(key), sd.direction), bytearray()).extend(sd.data)

    socket = ScapSocket(store.replay_source().as_trace(), memory_size=64 << 20, rate_bps=1e9)
    socket.dispatch_data(collect)
    socket.start_capture()
    ok = set(replayed) == set(stored) and all(
        bytes(replayed[key]) == data for key, data in stored.items()
    )
    ledger.check("replay_identity", ok, "replayed streams differ from stored streams")


def query_phase(
    store, ledger: Ledger, speed: Speed, seed: int, budget_s: float,
    min_scans: int, min_points: int,
) -> Samples:
    samples = Samples()
    last: List[Any] = []

    def scan() -> None:
        result, wall, _, factor = speed.timed(store.query)
        ledger.attempt()
        samples.add_rate("query_scan_MBps", result.total_bytes / 1e6, wall, factor)
        samples.add_time("query_wall_s", wall, factor)
        last[:] = [result]

    repeat(scan, budget_s * 0.12, min_scans)
    expected = _by_connection(last[0])
    connections = store.connections()
    random.Random(seed).shuffle(connections)
    visits = Samples()  # per connection, not per metric
    mismatches = [0]
    cursor = [0]
    results: List[Any] = []

    def point() -> None:
        results.append(store.query(five_tuple=connections[cursor[0] % len(connections)]))
        cursor[0] += 1

    def block() -> None:
        """A few point queries under one pair of reference readings."""
        first = cursor[0]
        del results[:]
        raw, factor = speed.block(point, QUERY_BLOCK)
        ledger.attempt(len(raw))
        samples.add_time("query_wall_s", sum(raw), factor)
        for offset, (elapsed, result) in enumerate(zip(raw, results)):
            key = tuple(connections[(first + offset) % len(connections)].canonical())
            visits.add_time(key, elapsed * 1e3, factor)
            samples.add_time("query_visit_ms", elapsed * 1e3, factor)
            if _by_connection(result) != {key: expected.get(key)}:
                mismatches[0] += 1

    gc.collect()
    # At least three visits of every stored connection.
    floor = max(min_points, 3 * len(connections))
    repeat(block, budget_s * 0.88, -(-floor // QUERY_BLOCK))
    # One latency per connection: the median of its visits.
    samples.normal["query_tuple_ms"] = [statistics.median(v) for v in visits.normal.values()]
    samples.raw["query_tuple_ms"] = [statistics.median(v) for v in visits.raw.values()]
    ledger.check("point_query_bytes", mismatches[0] == 0,
                 f"{mismatches[0]} point queries differ from the full scan",
                 count=max(1, mismatches[0]))
    return samples


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
class Daemon:
    """The capture daemon in its own process (``daemon_main.py``)."""

    def __init__(
        self, workdir: str, tag: str, workload: Workload, trace_dump: Optional[str] = None
    ):
        self.socket_path = os.path.join(workdir, f"{tag}.sock")
        self.store_dir = os.path.join(workdir, f"{tag}-store")
        command = [
            sys.executable, os.path.join(os.path.dirname(__file__), "daemon_main.py"),
            "--unix", self.socket_path, "--store", self.store_dir,
            # Room for every event of one capture: zero drops is the
            # expected outcome, so a drop is a failed operation.
            "--max-queued-events", str(1 << 20),
            "--memory-mb", str(max(1, workload.memory_size >> 20)),
        ]
        if trace_dump is not None:
            command += ["--trace-dump", trace_dump]
        self.process = subprocess.Popen(command, stdout=subprocess.DEVNULL)

    def connect(self, name: str) -> ScapClient:
        """A client connection, waiting for the daemon to listen."""
        deadline = time.perf_counter() + WAIT_SECONDS
        while True:
            try:
                return ScapClient(unix_path=self.socket_path, name=name, timeout=WAIT_SECONDS)
            except OSError:
                if self.process.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited with {self.process.returncode} before listening"
                    ) from None
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)

    def status(self, field: str) -> int:
        """A numeric field of ``/proc/<pid>/status`` (VmHWM in kB, Threads)."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise KeyError(field)

    def stop(self, client: Optional[ScapClient] = None) -> int:
        """Shut the daemon down and wait for it; returns its exit code."""
        if self.process.poll() is None:
            try:
                if client is not None:
                    client.shutdown_server()
                else:
                    self.process.terminate()
                self.process.wait(timeout=WAIT_SECONDS)
            except Exception:
                self.process.kill()
                self.process.wait()
        return self.process.returncode


class Subscriber:
    """Connection 2: drains one subscription as events arrive, stamping
    each, so the fan-out clock can stop on the last *expected* event."""

    def __init__(self, client, events=("created", "data", "closed")):
        self.client = client
        self.stream = client.subscribe(events=list(events))
        self.stamps = array("d")
        self.next_seq = 0
        self.seq_gaps = 0
        self._stop = False
        self._thread = threading.Thread(target=self._drain, name="bench-subscriber", daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        while not self._stop:
            # The timeout only bounds how long a stop request waits.
            frame = self.stream.next_event(timeout=0.05)
            if frame is None:
                continue
            stamp = time.perf_counter()
            if frame.header["seq"] != self.next_seq:
                self.seq_gaps += 1
            self.next_seq = frame.header["seq"] + 1
            self.stamps.append(stamp)

    def wait_for(self, count: int, timeout: float = WAIT_SECONDS) -> bool:
        """Block until ``count`` events are held (False if they never come)."""
        deadline = time.perf_counter() + timeout
        while len(self.stamps) < count:
            if time.perf_counter() > deadline:
                return False
            time.sleep(0.0005)
        return True

    def stop(self) -> None:
        self._stop = True
        self._thread.join(timeout=WAIT_SECONDS)


def fanout_rate(stamps: Sequence[float], submit_sent: float, held: int, expected: int) -> float:
    """Events per second of one capture at one subscriber.

    The clock runs from the submit being sent to the arrival of the last
    *expected* event — ``stamps[held + expected - 1]`` — whenever the
    caller got round to looking; no wait or timeout is in it.
    """
    return expected / (stamps[held + expected - 1] - submit_sent)


def unbalanced_clients(clients: Sequence[Dict[str, Any]]) -> List[int]:
    """Client ids whose session ledger dropped an event or does not
    balance (``enqueued == delivered + dropped + queued``)."""
    return [
        entry["client_id"] for entry in clients
        if entry["ledger"]["dropped"]
        or entry["ledger"]["enqueued"]
        != entry["ledger"]["delivered"] + entry["ledger"]["dropped"] + entry["queued"]
    ]


class ServiceSession:
    """A daemon, the driver connection and subscriber connections."""

    def __init__(
        self, workdir: str, tag: str, workload: Workload, subscribers: int = 1,
        trace_dump: Optional[str] = None, wait_seconds: float = WAIT_SECONDS,
    ):
        self.workload = workload
        self.wait_seconds = wait_seconds
        self.daemon = Daemon(workdir, tag, workload, trace_dump)
        try:
            self.driver = self.daemon.connect("driver")
            if workload.cutoff is not None:
                self.driver.set_cutoff(workload.cutoff)
            self.subscribers = [
                Subscriber(self.daemon.connect(f"subscriber-{index}"))
                for index in range(subscribers)
            ]
        except BaseException:
            self.daemon.stop()
            raise
        self._enqueued = {sub.client.client_id: 0 for sub in self.subscribers}
        self._held = {sub.client.client_id: 0 for sub in self.subscribers}

    def submit(
        self, pcap: bytes, ledger: Ledger, speed: Speed
    ) -> Tuple[Dict[str, Any], float, float, List[float]]:
        """One ``submit_trace``: ``(summary, wall_s, factor, fan-out rates)``.

        The expected event count of each subscriber is what the daemon's
        session ledger says it enqueued for this capture.
        """
        before = speed.reading()
        sent = time.perf_counter()
        summary = self.driver.submit_trace(pcap, rate_bps=self.workload.rate_bps)
        wall = time.perf_counter() - sent
        ledger.attempt()
        rates = []
        enqueued = self.enqueued()
        for subscriber in self.subscribers:
            client_id = subscriber.client.client_id
            expected = enqueued[client_id] - self._enqueued[client_id]
            self._enqueued[client_id] = enqueued[client_id]
            held = self._held[client_id]
            ledger.attempt(expected)
            arrived = subscriber.wait_for(held + expected, self.wait_seconds)
            missing = held + expected - min(len(subscriber.stamps), held + expected)
            ledger.check("event_count", arrived and expected > 0,
                         f"{missing} of {expected} expected events never arrived",
                         count=max(1, missing))
            if arrived and expected > 0:
                rates.append(fanout_rate(subscriber.stamps, sent, held, expected))
            self._held[client_id] = held + expected - missing
        # The second reading waits until the last event has been handed
        # over: the daemon's sender shares this CPU until then.
        return summary, wall, speed.factor_since(before), rates

    def enqueued(self) -> Dict[int, int]:
        """Events the daemon has enqueued so far, per client id."""
        return {
            entry["client_id"]: entry["ledger"]["enqueued"]
            for entry in self.driver.stats()["clients"]
        }

    def close(self, ledger: Optional[Ledger] = None) -> None:
        """Check the final ledgers, stop the daemon, wait for it."""
        try:
            if ledger is not None:
                gaps = sum(sub.seq_gaps for sub in self.subscribers)
                ledger.check("event_seq", gaps == 0, f"{gaps} gaps in event seq",
                             count=max(1, gaps))
                # ``delivered`` moves just after the write that the
                # subscriber may already have read: let it settle.
                for _ in range(100):
                    unbalanced = unbalanced_clients(self.driver.stats()["clients"])
                    if not unbalanced:
                        break
                    time.sleep(0.01)
                ledger.check("session_ledgers", not unbalanced,
                             f"clients {unbalanced} dropped events or do not balance")
            for subscriber in self.subscribers:
                subscriber.stop()
        finally:
            code = self.daemon.stop(self.driver)
            for client in [self.driver] + [sub.client for sub in self.subscribers]:
                client.close()
        if ledger is not None:
            # The serve entry point exits 0 only if every session ledger
            # balanced at shutdown.
            ledger.check("daemon_exit", code == 0, f"daemon exit code {code}")


def library_twin_digest(pcap_path: str, workload: Workload, workdir: str) -> str:
    """What the daemon's store must answer: the same pcap captured in
    library mode with the daemon's socket configuration."""
    directory = os.path.join(workdir, "twin-store")
    shutil.rmtree(directory, ignore_errors=True)
    store = StreamStore(directory, cores=1, compress=False)
    try:
        fresh_socket(
            Trace(read_pcap(pcap_path), name="twin"), workload, store, app=False
        ).start_capture()
        return streams_digest(
            [(s.client_tuple, s.direction, s.data) for s in store.query().streams]
        )
    finally:
        store.close(enforce_retention=False)
        shutil.rmtree(directory, ignore_errors=True)


def ping_block(
    driver: ScapClient, ledger: Ledger, speed: Speed, samples: Samples,
    key: str = "command_block_ms",
) -> None:
    """``PING_BLOCK`` closed-loop pings on an idle daemon: their median
    under ``key``, every round trip under ``command_ms``."""
    gc.collect()
    raw, factor = speed.block(driver.ping, PING_BLOCK)
    ledger.attempt(len(raw))
    samples.add_time(key, statistics.median(raw) * 1e3, factor)
    for value in raw:
        samples.add_time("command_ms", value * 1e3, factor)


def service_phase(
    session: ServiceSession, pcap: bytes, twin_digest: str, ledger: Ledger, speed: Speed,
    budget_s: float, min_submits: int, min_pings: int, min_queries: int, warmups: int = 2,
) -> Samples:
    samples = Samples()
    driver = session.driver

    def submit(timed: bool) -> None:
        gc.collect()
        summary, wall, factor, rates = session.submit(pcap, ledger, speed)
        samples.add_time("submit_wall_s" if timed else "warmup_wall_s", wall, factor)
        if timed:
            samples.add_rate("submit_pkts_per_s", summary["offered_packets"], wall, factor)
            for rate in rates:
                samples.add_rate("fanout_events_per_s", rate, 1.0, factor)

    def query() -> None:
        streams, wall, _, factor = speed.timed(driver.query)
        ledger.attempt()
        total = sum(len(stream["data"]) for stream in streams)
        samples.add_rate("remote_query_MBps", total / 1e6, wall, factor)
        samples.add_time("remote_query_wall_s", wall, factor)
        digest = streams_digest(
            [(stream["flow"], stream["direction"], stream["data"]) for stream in streams]
        )
        ledger.check("daemon_query_bytes", digest == twin_digest,
                     "daemon query differs from the library-mode run on the same pcap")

    def pings() -> None:
        ping_block(driver, ledger, speed, samples)

    def submit_then_ping() -> None:
        submit(True)
        pings()

    for _ in range(warmups):
        submit(False)
    # Queries run at a fixed store size (the warm-up captures), so their
    # rate does not depend on how many timed submits fit in the budget.
    repeat(query, budget_s * 0.15, min_queries)
    # Pings go between the submits, not in one burst: the round trip is
    # mostly thread wake-ups, which the host disturbs for a second or
    # two at a time, and blocks spread over the phase straddle that.
    repeat(submit_then_ping, budget_s * 0.85, min_submits)
    blocks = -(-min_pings // PING_BLOCK) - len(samples.normal["command_block_ms"])
    repeat(pings, 0.0, max(0, blocks))
    return samples
