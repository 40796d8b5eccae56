"""The metrics registry: counters, gauges, histograms.

A :class:`MetricsRegistry` holds named metric *families*; a family with
label names fans out into one child instrument per label-value tuple
(e.g. ``scap_core_packets_total{core="3"}``), a family without labels
has a single anonymous child returned directly.  Everything is
registered get-or-create, so components can declare the same metric
from several places and share one time series.

Design constraints (matching the in-kernel origin of these hooks):

* **Cheap when disabled.**  Every mutation checks one boolean
  (``registry.enabled``) and returns; no allocation, no dict lookup.
* **Hot paths publish per batch.**  A hot path keeps plain numbers while
  a batch runs (a count, a gauge's last value, a histogram's tally) and
  publishes them once at its end, so a sample costs no call.
* **No wall-clock calls.**  The registry never reads real time; any
  timestamp attached to an export is injected by the caller from the
  simulated clock.
* **Counters are monotone.**  ``Counter.inc`` rejects negative
  amounts; tests assert this stays true.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_FRACTION_BUCKETS",
]

#: Histogram buckets for service times / latencies, in seconds.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 1e-1,
)

#: Histogram buckets for occupancy fractions in [0, 1].
DEFAULT_FRACTION_BUCKETS: Tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_registry", "value")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters are monotone; cannot inc by a negative")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depths, table sizes)."""

    __slots__ = ("_registry", "value")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        if not self._registry.enabled:
            return
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        if not self._registry.enabled:
            return
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)


class Histogram:
    """A distribution over fixed, cumulative-exported buckets.

    ``bounds`` are the inclusive upper bounds of the finite buckets; an
    implicit +Inf bucket catches the rest.  ``counts[i]`` is the
    *per-bucket* (non-cumulative) count; exporters accumulate.  A hot
    path records a sample with no call, ``tally[value] += 1`` and
    ``running += value``, and publishes once per batch; the published
    ``sum`` is ``running``, added in arrival order.
    """

    __slots__ = ("_registry", "bounds", "counts", "total", "sum", "tally", "running")

    def __init__(self, registry: "MetricsRegistry", bounds: Sequence[float]):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self._registry = registry
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.tally: Dict[float, int] = defaultdict(int)  # unpublished: value -> count
        self.running = 0.0  # ``sum`` plus the tally's samples

    def observe(self, value: float) -> None:
        """Record one sample and publish it."""
        if not self._registry.enabled:
            return
        self.tally[value] += 1
        self.running += value
        self.publish()

    def publish(self) -> None:
        """Bin the tally into the buckets and publish ``running`` as ``sum``."""
        tally = self.tally
        if tally:
            bounds = self.bounds
            last = len(bounds)
            index = 0
            # One walk of the bounds: each value lands where bisect_left puts it.
            for value in sorted(tally):
                while index < last and bounds[index] < value:
                    index += 1
                self.counts[index] += tally[value]
                self.total += tally[value]
            tally.clear()
        self.sum = self.running

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket bounds.

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``q * total`` (the Prometheus convention, without
        intra-bucket interpolation).  Samples past the last finite
        bound are reported as the last finite bound; an empty histogram
        reports 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.total == 0:
            return 0.0
        target = q * self.total
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            if running >= target:
                return bound
        return self.bounds[-1] if self.bounds else 0.0


class MetricFamily:
    """All children of one metric name, keyed by label values."""

    __slots__ = ("name", "kind", "help", "label_names", "children", "_registry", "_bounds")

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        bounds: Optional[Sequence[float]] = None,
    ):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.children: Dict[Tuple[str, ...], object] = {}
        self._registry = registry
        self._bounds = tuple(bounds) if bounds is not None else None

    def _make_child(self):
        if self.kind == "counter":
            return Counter(self._registry)
        if self.kind == "gauge":
            return Gauge(self._registry)
        return Histogram(self._registry, self._bounds or DEFAULT_TIME_BUCKETS)

    def labels(self, *values) -> object:
        """The child instrument for one label-value tuple (get-or-create)."""
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label values, "
                f"got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        child = self.children.get(key)
        if child is None:
            child = self._make_child()
            self.children[key] = child
        return child

    def samples(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        """(label_values, instrument) pairs in insertion order."""
        return self.children.items()


class MetricsRegistry:
    """Named metric families with a shared on/off switch."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.families: Dict[str, MetricFamily] = {}
        # SCAP_RACE=1: family registration is a structural mutation that
        # must stay on the thread that owns this registry.  Disabled
        # registries are exempt: the module-global NULL registry is a
        # write-only sink that every runtime shares by design.
        # Imported lazily — observability must not depend on sanitizers
        # at import time (sanitizer contexts point back at observability).
        from ..sanitizers.race import race_detector_from_env

        self._race = race_detector_from_env() if enabled else None
        self._race_token = (
            self._race.register("MetricsRegistry.families")
            if self._race is not None
            else 0
        )

    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Sequence[str],
        bounds: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self.families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} re-registered as {kind}{tuple(label_names)}, "
                    f"was {family.kind}{family.label_names}"
                )
            return family
        if self._race is not None:
            self._race.check(self._race_token, op="register_family")
        family = MetricFamily(self, name, kind, help_text, tuple(label_names), bounds)
        self.families[name] = family
        return family

    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()):
        """A counter family; with no labels, the sole child directly."""
        family = self._family(name, "counter", help_text, labels)
        return family if labels else family.labels()

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()):
        """A gauge family; with no labels, the sole child directly."""
        family = self._family(name, "gauge", help_text, labels)
        return family if labels else family.labels()

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        bounds: Optional[Sequence[float]] = None,
    ):
        """A histogram family; with no labels, the sole child directly."""
        family = self._family(name, "histogram", help_text, labels, bounds)
        return family if labels else family.labels()

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, or None."""
        return self.families.get(name)

    def value(self, name: str, *label_values) -> float:
        """Convenience: the scalar value of one counter/gauge child."""
        family = self.families[name]
        child = family.labels(*label_values)
        if isinstance(child, Histogram):
            raise TypeError(f"{name} is a histogram; read .sum/.total instead")
        return child.value  # type: ignore[union-attr]

    def sum_values(self, name: str) -> float:
        """Sum of a counter/gauge family's children across all labels."""
        family = self.families[name]
        return sum(child.value for _, child in family.samples())  # type: ignore[union-attr]
