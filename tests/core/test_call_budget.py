"""A timing-free performance gate: the exact number of Python-level and
built-in calls one capture pass makes.

The count is deterministic for a fixed trace and interpreter: it does
not depend on ``PYTHONHASHSEED``, on machine load, or (after one
unmeasured warm-up pass) on which tests ran before.  So it can hold a
ceiling with no noise margin.  Other
interpreter versions make a different number of built-in calls, so the
gate runs on CPython 3.11 only.

Calls are summed over the profiler's raw entries, one per code object.
``pstats.Stats.total_calls`` is not used: it keys functions by
``(file, line, name)``, so every dataclass's generated ``__init__``
(all ``<string>:2``) collapses into whichever one was seen last, and
the total then depends on what else the process has imported.
"""

import cProfile
import math
import sys

import pytest

from repro.apps import StreamDeliveryApp, attach_app
from repro.core import ScapSocket
from repro.traffic import CampusTrafficGenerator, Impairments, TrafficConfig

#: Calls of the pass below, measured on the tree that set it.  A change
#: that means to add calls raises this in its own diff.
CALL_CEILING = 69_342


def _trace():
    """Four TCP flows of exactly 400,000 bytes with the benchmark's
    impairment rates (1 % retransmit, 1 % reorder, 0.5 % overlap)."""
    size = 400_000
    config = TrafficConfig(
        seed=11,
        flow_count=4,
        tcp_fraction=1.0,
        # Every draw of the size model lands above the cap, so the cap
        # is the size.
        small_flow_fraction=1.0,
        lognormal_mu=math.log(size * 64.0),
        lognormal_sigma=0.01,
        max_flow_bytes=size,
        request_bytes_range=(120, 900),
        impairments=Impairments(
            retransmit_rate=0.01, reorder_rate=0.01, overlap_rate=0.005, seed=11
        ),
    )
    return CampusTrafficGenerator(config).generate(name="call_budget")


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="call counts are pinned on CPython 3.11"
)
def test_capture_call_count_under_ceiling(monkeypatch):
    # The sanitizer and race-detector flags add checks on the hot path.
    monkeypatch.delenv("SCAP_SANITIZE", raising=False)
    monkeypatch.delenv("SCAP_RACE", raising=False)
    trace = _trace()

    def fresh_socket():
        socket = ScapSocket(trace, memory_size=64 << 20, rate_bps=4e9)
        attach_app(socket, StreamDeliveryApp())
        return socket

    # The first pass fills the process-wide memos (RSS tables, address
    # strings, shared metric children); how many of them earlier tests
    # already filled would otherwise move the count.  The measured pass
    # is the steady state, the same whatever ran before.
    fresh_socket().start_capture()
    socket = fresh_socket()
    profile = cProfile.Profile()
    profile.enable()
    result = socket.start_capture()
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
    packets = result.offered_packets
    assert calls <= CALL_CEILING, (
        f"one capture pass made {calls:,} calls over {packets:,} packets "
        f"({calls / packets:.2f}/pkt); the ceiling is {CALL_CEILING:,}. "
        "A change that means to add calls raises CALL_CEILING in its own diff."
    )
