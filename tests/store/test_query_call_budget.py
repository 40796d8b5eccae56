"""A timing-free gate on the fixed cost of one point query.

Once a stored byte is cheap to read, most of a point query is what it
pays before and around its bytes: the index lookup, opening the
segment, checking the header, assembling the streams.  The exact
number of Python-level and built-in calls one point query of a
two-record connection makes pins that cost, as
``tests/core/test_call_budget.py`` pins the capture pass: it is
deterministic for a fixed store and interpreter, so the ceiling needs
no noise margin, and it is pinned on CPython 3.11 only.
"""

import cProfile
import sys

import pytest

from repro.netstack import FiveTuple, IPProtocol
from repro.store import StreamRecord, StreamStore

#: Calls of one point query below, measured on the tree that set it.  A
#: change that means to add calls raises this in its own diff.
POINT_QUERY_CALL_CEILING = 50


def _connection(n):
    return FiveTuple(0x0A000001, 40000 + n, 0x0A000002, 80, IPProtocol.TCP)


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="call counts are pinned on CPython 3.11"
)
def test_point_query_call_count_under_ceiling(tmp_path):
    store = StreamStore(str(tmp_path), cores=1)
    for n in range(8):  # a request and a response per connection
        client = _connection(n)
        store.append(StreamRecord(client, 0, 0, 1.0 + n, b"q" * 200))
        store.append(StreamRecord(client.reversed(), 1, 0, 1.5 + n, b"r" * 900))
    store.flush()
    measured = _connection(5)
    store.query(measured)  # fills the process-wide memos (struct formats)

    profile = cProfile.Profile()
    profile.enable()
    result = store.query(measured)
    profile.disable()

    calls = sum(entry.callcount for entry in profile.getstats())
    assert [(stream.direction, stream.data) for stream in result] == [
        (0, b"q" * 200), (1, b"r" * 900)
    ]
    assert calls <= POINT_QUERY_CALL_CEILING, (
        f"one point query of a two-record connection made {calls} calls; the "
        f"ceiling is {POINT_QUERY_CALL_CEILING}. A change that means to add "
        "calls raises POINT_QUERY_CALL_CEILING in its own diff."
    )
    store.close(enforce_retention=False)
