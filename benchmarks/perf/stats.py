"""Order statistics shared by the runner and ``compare``."""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

__all__ = ["percentile", "quartiles", "summarize"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def quartiles(samples: Sequence[float]) -> "tuple[float, float]":
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them; a sample of one is its own quartiles."""
    if len(samples) < 2:
        return (samples[0], samples[0])
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q1, q3)


def summarize(
    samples: Sequence[float], unit: str, raw: Optional[Sequence[float]] = None
) -> Dict:
    """One metric's record: the median with the quartiles, count and
    samples it came from, and the median of the raw (not
    speed-normalised) samples beside it."""
    q1, q3 = quartiles(samples)
    record = {
        "value": statistics.median(samples),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": list(samples),
    }
    if raw:
        record["raw_median"] = statistics.median(raw)
    return record
