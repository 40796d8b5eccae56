"""Self-tests of the benchmark: ``pytest benchmarks/perf/tests``.

Not collected by the repository's tier-1 run (``testpaths = tests``).
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(scope="session")
def root() -> str:
    return ROOT


@pytest.fixture(scope="module")
def tiny():
    """A tiny bulk_delivery workload: ``(workload, trace, store trace)``."""
    from benchmarks.perf import inputs, spec

    item = spec.workload("bulk_delivery")
    trace = inputs.build_trace(item, 11, inputs.scaled_units(item.units, "tiny"))
    store_trace = inputs.build_trace(item, 11, inputs.scaled_units(item.store_units, "tiny"))
    return item, trace, store_trace


@pytest.fixture
def pcap(tiny, tmp_path):
    """``(pcap bytes, path)`` of the tiny store trace."""
    from benchmarks.perf import inputs

    path = str(tmp_path / "submit.pcap")
    return inputs.pcap_bytes(tiny[2], path), path
