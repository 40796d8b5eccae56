"""The store's write path, frozen: one record sequence, its exact outputs.

For a fixed record sequence, ``write_path_golden.json`` holds what the
store made of it at 1, 2 and 3 cores, compression off and on: the
SHA-256 of every segment file, the writer's pending payload after each
append (which pins every drain point), the final ``StoreStats`` and the
metrics registry's JSON export.  The sequence crosses 2 MiB of pending
payload several times per core, rolls segments, flushes mid-run and
holds no record of 2 MiB or more.

``python tests/store/test_write_path_golden.py --record`` rewrites the
goldens and is for intentional behaviour changes only.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict

import pytest

from repro.netstack import FiveTuple, IPProtocol
from repro.observability import Observability
from repro.store import StreamRecord, StreamStore

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "write_path_golden.json")

CORE_COUNTS = (1, 2, 3)
RECORDS = 72
FLUSH_AT = 40
SEGMENT_BYTES = 3 << 20


def _size(n: int) -> int:
    if n % 13 == 12:
        return 1_600_000 + (n * 7919) % 400_000
    return 2048 + (n * 104_729) % 400_000


def _records():
    offsets = {}
    for n in range(RECORDS):
        five_tuple = FiveTuple(0x0A000001 + n % 5, 1024 + n % 7, 0x0A000063, 80, IPProtocol.TCP)
        key = (five_tuple, n % 2)
        size = _size(n)
        pattern = hashlib.sha256(b"%d" % n).digest() + bytes([n % 251]) * (n % 97)
        yield StreamRecord(
            five_tuple=five_tuple,
            direction=n % 2,
            stream_offset=offsets.get(key, 0),
            timestamp=n * 0.003,
            data=(pattern * (size // len(pattern) + 1))[:size],
            priority=n % 4,
        )
        offsets[key] = offsets.get(key, 0) + size


def _write(directory: str, cores: int, compress: bool) -> dict:
    obs = Observability(enabled=True)
    store = StreamStore(
        directory, cores=cores, segment_bytes=SEGMENT_BYTES, compress=compress,
        observability=obs,
    )
    pending = []
    for n, record in enumerate(_records()):
        store.append(record, core=n % cores)
        pending.append(store.writer.queue_depth_bytes)
        if n == FLUSH_AT:
            store.flush()
    stats = store.close(enforce_retention=False)
    segments = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            segments[name] = hashlib.sha256(handle.read()).hexdigest()
    # Values only: a family's help text documents it, it is not output.
    registry = {
        name: {"type": family["type"], "values": family["values"]}
        for name, family in json.loads(obs.export_json(now=0.0))["metrics"].items()
    }
    return {
        "segments": segments,
        "pending": pending,
        "stats": asdict(stats),
        "registry": registry,
    }


def _key(cores: int, compress: bool) -> str:
    return f"cores={cores},compress={int(compress)}"


def test_sequence_shape():
    sizes = [_size(n) for n in range(RECORDS)]
    assert max(sizes) < 2 << 20
    # Even at three cores, each core's share crosses 2 MiB three times.
    assert sum(sizes) / max(CORE_COUNTS) > 3 * (2 << 20)


@pytest.mark.parametrize("compress", [False, True])
@pytest.mark.parametrize("cores", CORE_COUNTS)
def test_write_path_matches_golden(tmp_path, cores, compress):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)[_key(cores, compress)]
    observed = json.loads(json.dumps(_write(str(tmp_path), cores, compress)))
    assert sorted(observed) == sorted(golden)
    for key, expected in golden.items():
        assert observed[key] == expected, f"{key} diverged from the committed golden"
    assert len(observed["segments"]) > cores, "sanity: segments must roll"
    assert observed["stats"]["writer_queue_drops"] == 0


def _record_goldens() -> None:
    goldens = {}
    for cores in CORE_COUNTS:
        for compress in (False, True):
            with tempfile.TemporaryDirectory() as scratch:
                goldens[_key(cores, compress)] = _write(scratch, cores, compress)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/store/test_write_path_golden.py --record")
    _record_goldens()
