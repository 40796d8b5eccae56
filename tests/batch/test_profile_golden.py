"""Every field of the stage profile and every telemetry sample, pinned.

``golden_fingerprints.json`` pins the profiler's service and wait
seconds and the digest of the registry's final export.  This file pins
what those leave open: per stage, ``samples``, ``wait_samples``,
``per_core_seconds`` and the ``p50`` / ``p99`` / ``wait_p99`` bucket
quantiles, and the registry as the telemetry ring saw it *during* the
run (one sample per cadence, taken at batch boundaries).  Telemetry
sample times depend on where the batch boundaries fall, so each batch
size has its own golden entry.

The goldens in ``profile_golden.json`` were recorded on the last commit
that recorded hot-path metrics per sample; ``--record`` rewrites them
and is for intentional behaviour changes only::

    PYTHONPATH=src:. python -m tests.batch.test_profile_golden --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import pytest

from repro.apps import StreamRecorder
from repro.core import ScapSocket
from repro.observability import Observability, TelemetryRing
from repro.store import StreamStore

from .test_differential import SCENARIOS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "profile_golden.json")

#: The scenario pinned: a recorded capture, so all seven stages
#: (``store_drain`` included) carry samples.
SCENARIO = "store"
BATCH_SIZES = (1, 64)
#: Simulated seconds between telemetry samples: six or seven per run.
CADENCE = 0.0005


def _observe(batch_size, store_dir):
    """Run the scenario; return its full profile and telemetry view."""
    kwargs = SCENARIOS[SCENARIO]
    obs = Observability(enabled=True)
    telemetry = TelemetryRing(obs.registry, cadence=CADENCE)
    socket = ScapSocket(
        kwargs["trace_factory"](),
        rate_bps=2e9,
        memory_size=1 << 21,
        observability=obs,
        batch_size=batch_size,
        telemetry=telemetry,
    )
    socket.set_cutoff(kwargs["cutoff"])
    store = StreamStore(str(store_dir), observability=obs)
    socket.set_store(StreamRecorder(store))
    socket.start_capture(name="profile-golden")
    profile = socket.profile().to_dict()
    socket.close()
    store.close()
    samples = [sample.as_dict() for sample in telemetry.history()]
    encoded = json.dumps(samples, sort_keys=True).encode()
    return {
        "profile": profile,
        "telemetry_samples": len(samples),
        "telemetry_digest": hashlib.sha256(encoded).hexdigest(),
    }


def _view(observed):
    """The JSON round trip the golden file went through (floats exact)."""
    return json.loads(json.dumps(observed))


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_profile_and_telemetry_match_golden(batch_size, tmp_path):
    observed = _view(_observe(batch_size, tmp_path / "store"))
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)[str(batch_size)]
    assert observed["telemetry_samples"] > 2, "sanity: the ring must sample mid-run"
    stages = {entry["stage"]: entry for entry in observed["profile"]["stages"]}
    assert len(stages) == 7 and all(entry["samples"] or entry["wait_samples"]
                                    for entry in stages.values())
    expected_stages = {entry["stage"]: entry for entry in golden["profile"]["stages"]}
    assert sorted(stages) == sorted(expected_stages)
    for name, entry in stages.items():
        for field, value in expected_stages[name].items():
            assert entry[field] == value, f"batch={batch_size}: {name}.{field} diverged"
    assert observed == golden, f"batch={batch_size}: profile totals or telemetry diverged"


def _record_goldens() -> None:
    goldens = {}
    for batch_size in BATCH_SIZES:
        with tempfile.TemporaryDirectory() as scratch:
            goldens[str(batch_size)] = _view(
                _observe(batch_size, os.path.join(scratch, "store"))
            )
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.batch.test_profile_golden --record")
    _record_goldens()
