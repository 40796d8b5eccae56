"""Shared fixtures for the figure-regeneration benchmarks.

``emit`` writes harness tables both to the real stdout (bypassing
pytest's capture, so ``pytest benchmarks/ | tee ...`` shows the series)
and to ``benchmarks/output/<scale>/<name>.txt``, where
``generate_experiments.py --scale <scale>`` embeds them in
EXPERIMENTS.md.  Each scale has its own directory, so a ``tiny`` run
never overwrites the tables of a ``standard`` one.

The same assertions run at every scale (``REPRO_BENCH_SCALE``).  A
claim that needs more flows or stream-memory headroom than ``tiny``
gives carries :data:`needs_small_scale`, and its docstring says why.
"""

from __future__ import annotations

import os
import sys

import pytest

_OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")

#: Skips a claim at ``tiny``; it still runs at ``small`` and ``standard``.
#: Reads the variable ``get_scale()`` reads, because this module must
#: import without ``src/`` on the path (``pytest benchmarks/perf/tests``).
needs_small_scale = pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SCALE") == "tiny",
    reason="holds from the small scale up; see its docstring",
)


@pytest.fixture
def emit(request):
    """Return a function writing a table to stdout + an output file."""
    from repro.bench import get_scale

    def _emit(text: str, name: str = "") -> None:
        label = name or request.node.name
        banner = f"\n{'=' * 72}\n{label}\n{'=' * 72}\n"
        sys.__stdout__.write(banner + text + "\n")
        sys.__stdout__.flush()
        directory = os.path.join(_OUTPUT_DIR, get_scale().name)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{label}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")

    return _emit


def first_drop_rate(series, system: str, threshold: float = 0.005) -> float:
    """The lowest sweep rate at which ``system`` drops more than
    ``threshold`` (or +inf if it never does)."""
    for x in series.xs():
        if series.get(system, x).drop_rate > threshold:
            return x
    return float("inf")


def max_lossfree_rate(series, system: str, threshold: float = 0.005) -> float:
    """The highest sweep rate at which ``system`` stays at or below
    ``threshold`` loss, scanning from the low end."""
    best = 0.0
    for x in series.xs():
        if series.get(system, x).drop_rate <= threshold:
            best = x
        else:
            break
    return best
