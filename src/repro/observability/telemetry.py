"""Time-series telemetry: cadenced snapshots of the metrics registry.

Metrics answer "how many so far"; the telemetry ring answers "how fast
right now" and "what did the last N intervals look like".  On each
sample it flattens every registry child to a ``family{labels}`` key
(histograms contribute ``_sum`` and ``_count`` series), retains a
bounded history, and derives per-second rates from counter deltas
between the newest two samples.

Clock discipline matches the rest of the observability layer: sample
times are injected by the caller.  Library runs pass the simulated
clock (packet timestamps), the daemon's loop-thread timer passes
``time.monotonic()``; the ring itself never reads wall time.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from .exporters import _label_str
from .registry import Gauge, Histogram, MetricsRegistry

__all__ = ["TelemetrySample", "TelemetryRing"]


@dataclass
class TelemetrySample:
    """One flattened snapshot: injected time plus ``key -> value``."""

    time: float
    values: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """The sample as a plain dict (wire/JSON shape)."""
        return {"time": self.time, "values": dict(self.values)}


def _flatten(registry: MetricsRegistry) -> (
    "tuple[Dict[str, float], Dict[str, str], Dict[str, List[str]]]"
):
    """Flatten the registry to sample keys, their kinds, and family map."""
    values: Dict[str, float] = {}
    kinds: Dict[str, str] = {}
    families: Dict[str, List[str]] = {}
    for name, family in list(registry.families.items()):
        keys = families.setdefault(name, [])
        for label_values, child in family.samples():
            labels = _label_str(family.label_names, label_values)
            if isinstance(child, Histogram):
                for suffix, value in (
                    ("_sum", child.sum),
                    ("_count", float(child.total)),
                ):
                    key = f"{name}{suffix}{labels}"
                    values[key] = value
                    kinds[key] = "counter"
                    keys.append(key)
            else:
                key = f"{name}{labels}"
                values[key] = float(child.value)
                kinds[key] = "gauge" if isinstance(child, Gauge) else "counter"
                keys.append(key)
    return values, kinds, families


class TelemetryRing:
    """Bounded ring of registry snapshots with derived rates.

    ``sample`` is unconditional; ``maybe_sample`` applies the cadence
    so hot loops can call it every batch and still pay one snapshot
    per interval.  One thread owns a ring: in the daemon, the loop
    thread samples it and answers every reader.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        cadence: float = 1.0,
        capacity: int = 512,
    ):
        if cadence <= 0:
            raise ValueError("telemetry cadence must be positive")
        if capacity < 2:
            raise ValueError("telemetry capacity must be at least 2")
        self.registry = registry
        self.cadence = cadence
        self.capacity = capacity
        self._samples: Deque[TelemetrySample] = deque(maxlen=capacity)
        self._kinds: Dict[str, str] = {}
        self._families: Dict[str, List[str]] = {}
        self.sampled = 0
        self.skipped = 0

    def sample(self, now: float) -> TelemetrySample:
        """Snapshot the registry at injected time ``now``."""
        values, kinds, families = _flatten(self.registry)
        entry = TelemetrySample(time=now, values=values)
        self._samples.append(entry)
        self._kinds.update(kinds)
        self._families = families
        self.sampled += 1
        return entry

    def maybe_sample(self, now: float) -> Optional[TelemetrySample]:
        """Snapshot only if at least one cadence has elapsed."""
        if self._samples and now - self._samples[-1].time < self.cadence:
            self.skipped += 1
            return None
        return self.sample(now)

    def __len__(self) -> int:
        return len(self._samples)

    def history(self) -> List[TelemetrySample]:
        """All retained samples, oldest first."""
        return list(self._samples)

    def latest(self) -> Optional[TelemetrySample]:
        """The most recent sample, or None before the first one."""
        return self._samples[-1] if self._samples else None

    def window(self) -> "tuple[Optional[TelemetrySample], Optional[TelemetrySample]]":
        """The last two samples ``(previous, latest)``; Nones until both exist."""
        if len(self._samples) < 2:
            return None, None
        return self._samples[-2], self._samples[-1]

    def rates(self) -> Dict[str, float]:
        """Per-second rates of every counter key over the last interval.

        Empty until two samples exist or while the interval is zero
        seconds wide.  Counter resets (new value below old) clamp to 0.
        """
        previous, latest = self.window()
        if previous is None or latest is None:
            return {}
        dt = latest.time - previous.time
        if dt <= 0:
            return {}
        kinds = self._kinds
        out: Dict[str, float] = {}
        for key, value in latest.values.items():
            if kinds.get(key) != "counter":
                continue
            delta = value - previous.values.get(key, 0.0)
            out[key] = max(0.0, delta) / dt
        return out

    def rate(self, family: str) -> Optional[float]:
        """Summed per-second rate across one counter family's children.

        ``None`` when fewer than two samples exist (no interval yet);
        0.0 when the family is idle or absent.
        """
        rates = self.rates()
        if not rates and len(self) < 2:
            return None
        return sum(rates.get(key, 0.0) for key in self._families.get(family, ()))

    def gauge_value(self, family: str) -> float:
        """Summed latest value across one family's children (0.0 if absent)."""
        latest = self.latest()
        if latest is None:
            return 0.0
        return sum(latest.values.get(key, 0.0) for key in self._families.get(family, ()))

    def as_dict(self) -> Dict[str, object]:
        """The full history as a plain dict (wire/JSON shape)."""
        return {
            "cadence": self.cadence,
            "capacity": self.capacity,
            "sampled": self.sampled,
            "samples": [entry.as_dict() for entry in self.history()],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON text of :meth:`as_dict` (the forensics export)."""
        return json.dumps(self.as_dict(), indent=indent)
