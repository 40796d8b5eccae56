"""The daemon's trace ring holds only what the ``spans`` command reads.

A request, a dropped event and an eviction are each counted by a
metric and a ledger; none of them writes a trace record.  So a
subscriber that never reads, whose every queued event is dropped, costs
the ring nothing: every span the daemon recorded is still there for
``spans``.
"""

from __future__ import annotations

from repro.observability import HOOK_SPAN, Observability
from repro.service import DaemonConfig, FrameReader, ScapClient, ScapDaemon
from repro.service.protocol import PROTOCOL_MINOR
from repro.service.session import ClientQuotas

from .test_event_loop import _raw_call, _raw_connect

CAPTURES = 5


def test_a_subscriber_that_never_reads_leaves_the_ring_to_spans(tmp_path):
    daemon = ScapDaemon(
        DaemonConfig(
            store_dir=str(tmp_path / "store"), quotas=ClientQuotas(max_queued_events=16)
        ),
        observability=Observability(enabled=True),
    )
    path = daemon.add_unix_listener(str(tmp_path / "scapd.sock"))
    daemon.start()
    stuck, reader = _raw_connect(path), FrameReader()
    _raw_call(stuck, reader, 1, "hello", name="stuck", protocol_minor=PROTOCOL_MINOR)
    _raw_call(stuck, reader, 2, "subscribe", events=["created", "data", "closed"])
    client = ScapClient(unix_path=path, name="submitter")
    try:
        for seed in range(CAPTURES):
            client.submit_campus(flows=200, seed=seed)
        (ledger,) = [c["ledger"] for c in client.stats()["clients"] if c["name"] == "stuck"]
        assert ledger["dropped"] > 1000  # the scenario drops, and drops a lot
        returned = client.spans()
        ring = daemon._obs.trace
        # Read on the loop thread, after the ``spans`` request's own spans ended.
        records = daemon._on_loop(lambda: list(ring))
        assert {record.hook for record in records} == {HOOK_SPAN}
        assert ring.overwritten == 0 and len(records) == ring.emitted
        recorded = [
            (r.fields["trace_id"], r.fields["span_id"]) for r in records
            if r.fields["name"] not in ("daemon:spans", "handler:spans")
        ]
        assert [(s["trace_id"], s["span_id"]) for s in returned] == recorded
        names = {s["name"] for s in returned}
        assert {"daemon:submit_trace", "handler:submit_trace", "capture:run"} <= names
    finally:
        stuck.close()
        client.close()
        daemon.shutdown()
    assert daemon.ledgers_balanced()
