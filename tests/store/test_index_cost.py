"""What one indexed record costs the process that holds the index.

A daemon's store index lives as long as the daemon, so its size and
the objects the garbage collector walks on every full pass must not
grow with an object per stored record.  The store here is shaped like
a daemon's: 20 sealed segments (one per capture), each holding 50
two-way connections with 5 records per direction, so each connection
has 200 records spread over every segment.
"""

import gc
import tracemalloc

from repro.netstack import FiveTuple, IPProtocol
from repro.store import StoreIndex, StreamRecord, StreamStore

SEGMENTS, CONNECTIONS, PER_DIRECTION = 20, 50, 5
RECORDS = SEGMENTS * CONNECTIONS * 2 * PER_DIRECTION

#: GC-tracked objects per indexed record, measured on the tree that set
#: it: 0.0326 (eleven objects per segment, eight of them its column
#: arrays, and two arrays per connection).
TRACKED_PER_RECORD = 0.033
#: Bytes the index retains per indexed record (``tracemalloc``),
#: measured on the tree that set it: 54.6 (35 bytes of columns a row, 8
#: in the connection's bucket, the rest per segment and per connection).
RETAINED_BYTES_PER_RECORD = 56


def _fill(directory):
    store = StreamStore(directory, cores=1)
    stamp = 0.0
    for capture in range(SEGMENTS):
        for piece in range(PER_DIRECTION):
            for n in range(CONNECTIONS):
                client = FiveTuple(0x0A000001 + n, 40000 + n, 0x0A0000FE, 80, IPProtocol.TCP)
                stamp += 0.001
                for direction, five_tuple in ((0, client), (1, client.reversed())):
                    store.append(StreamRecord(
                        five_tuple, direction, 500 * capture + 100 * piece, stamp, b"x" * 100,
                    ))
        store.flush()  # one sealed segment per capture
    store.close(enforce_retention=False)


def _tracked():
    gc.collect()
    return len(gc.get_objects())


def _measure(directory):
    """``(index, tracked objects, retained bytes)`` of indexing ``directory``."""
    StoreIndex().scan_directory(directory)  # warm the process-wide memos
    tracked_before = _tracked()
    tracemalloc.start()
    try:
        retained_before = tracemalloc.get_traced_memory()[0]
        index = StoreIndex()
        index.scan_directory(directory)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - retained_before
    finally:
        tracemalloc.stop()
    return index, _tracked() - tracked_before, retained


def test_an_indexed_record_is_no_object_and_a_few_dozen_bytes(tmp_path):
    """Per indexed record: at most a thirtieth of a tracked object and 56
    bytes.  The index that kept one ``RecordMeta`` dataclass per record
    (and a ``FiveTuple`` per scanned record) measured 2.01 tracked
    objects and 419 bytes per record on this store."""
    directory = str(tmp_path)
    _fill(directory)
    index, tracked, retained = _measure(directory)
    assert index.record_count == RECORDS
    assert len(index.segments) == SEGMENTS
    assert tracked / RECORDS <= TRACKED_PER_RECORD, tracked / RECORDS
    assert retained / RECORDS <= RETAINED_BYTES_PER_RECORD, retained / RECORDS
