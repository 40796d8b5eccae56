"""Wrapper tracing: spans around the public entry points of each layer.

Nothing under ``src/`` knows about this file.  :func:`install` replaces
the class attributes and module functions listed in ``spec.LAYERS`` with
timing wrappers (before the socket or daemon is constructed) and
:func:`Installed.restore` puts the originals back.  A span is
``(entry, parent, start_ns, end_ns)``; spans stay in memory, one flat
``int64`` array per thread, until :meth:`Tracer.table` folds them into
per-layer calls and self time (a span's duration minus the part of it
its child spans cover).
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .spec import DAEMON_ONLY_LAYERS, LAYERS, Entry

__all__ = ["Tracer", "Installed", "install", "entry_table"]

_FIELDS = 4  # entry, parent, start_ns, end_ns

#: Spans of each thread kept in a dump (the fold uses all of them).
SPAN_SAMPLE = 500


def entry_table() -> List[Tuple[str, Entry]]:
    """``(layer name, entry)`` for every wrapped entry point, in
    ``spec.LAYERS`` order; a span's first field indexes this list."""
    return [(layer.name, entry) for layer in LAYERS for entry in layer.entries]


class Tracer:
    """The span store and the counters the hooks feed."""

    def __init__(self) -> None:
        self.entries = entry_table()
        self._threads: Dict[int, Tuple[array, List[int]]] = {}
        self._lock = threading.Lock()
        #: Counters fed by hooks (see ``_HOOKS``).
        self.counters: Dict[str, float] = {}
        #: Objects a hook asked to keep for end-of-pass counter reads.
        self.remembered: Dict[int, Any] = {}

    def _new_state(self) -> Tuple[array, List[int]]:
        state = (array("q"), [-1])
        with self._lock:
            self._threads[threading.get_ident()] = state
        return state

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, entry_id: int, hook: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call."""
        threads = self._threads
        new_state = self._new_state
        get_ident = threading.get_ident
        now = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            # One span per resume: the consumer's own work between two
            # items must not be charged to the generator's layer.
            def traced_gen(*args: Any, **kwargs: Any):
                iterator = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, None)
                try:
                    while True:
                        spans, stack = threads.get(get_ident()) or new_state()
                        index = len(spans)
                        spans.extend((entry_id, stack[-1], now(), 0))
                        stack.append(index)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            spans[index + 3] = now()
                            stack.pop()
                        yield item
                finally:
                    iterator.close()

            traced_gen.__wrapped__ = fn  # type: ignore[attr-defined]
            return traced_gen

        def traced(*args: Any, **kwargs: Any):
            spans, stack = threads.get(get_ident()) or new_state()
            index = len(spans)
            spans.extend((entry_id, stack[-1], now(), 0))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index + 3] = now()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    def span_count(self) -> int:
        return sum(len(spans) for spans, _ in self._threads.values()) // _FIELDS

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per entry point over all threads: ``calls``, ``self_s`` and
        ``total_s`` (span time including children)."""
        count = len(self.entries)
        calls = np.zeros(count, dtype=np.int64)
        self_ns = np.zeros(count, dtype=np.float64)
        total_ns = np.zeros(count, dtype=np.float64)
        with self._lock:
            arrays = [np.array(spans, dtype=np.int64) for spans, _ in self._threads.values()]
        for flat in arrays:
            rows = flat.reshape(-1, _FIELDS)
            entry, parent = rows[:, 0], rows[:, 1]
            # A span still open when the table is taken has no end yet.
            closed = rows[:, 3] > 0
            duration = np.where(closed, rows[:, 3] - rows[:, 2], 0).astype(np.float64)
            nested = closed & (parent >= 0)
            child = np.bincount(
                parent[nested] // _FIELDS, weights=duration[nested], minlength=len(rows)
            )
            calls += np.bincount(entry[closed], minlength=count)
            self_ns += np.bincount(
                entry[closed], weights=(duration - child)[closed], minlength=count
            )
            total_ns += np.bincount(entry[closed], weights=duration[closed], minlength=count)
        return {
            entry.target: {
                "layer": layer, "side": entry.side,
                "calls": int(calls[index]), "self_s": float(self_ns[index]) / 1e9,
                "total_s": float(total_ns[index]) / 1e9,
            }
            for index, (layer, entry) in enumerate(self.entries)
        }

    def dump(self, limit: int = SPAN_SAMPLE) -> List[List[int]]:
        """The first ``limit`` spans of each thread as
        ``[thread, entry, parent, start_ns, end_ns]`` rows."""
        rows: List[List[int]] = []
        with self._lock:
            threads = list(self._threads.items())
        for number, (_, (spans, _stack)) in enumerate(threads):
            for offset in range(0, min(len(spans), limit * _FIELDS), _FIELDS):
                entry, parent, start, end = spans[offset:offset + _FIELDS]
                rows.append([number, entry, parent // _FIELDS if parent >= 0 else -1, start, end])
        return rows


# ----------------------------------------------------------------------
# Counter hooks: counts taken at the same boundary as the span.
# ----------------------------------------------------------------------
def _bump(tracer: Tracer, name: str, amount: float = 1.0) -> None:
    tracer.counters[name] = tracer.counters.get(name, 0.0) + amount


def _peak(tracer: Tracer, name: str, value: float) -> None:
    if value > tracer.counters.get(name, 0.0):
        tracer.counters[name] = value


def _hook_remember(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.remembered[id(args[0])] = args[0]


def _hook_writer_depth(tracer: Tracer, args: tuple, result: Any) -> None:
    _peak(tracer, "writer_depth_max", args[0].queue_depth_bytes)


def _hook_segment_read(tracer: Tracer, args: tuple, result: Any) -> None:
    _bump(tracer, "segment_bytes_read", os.path.getsize(args[0]))


def _hook_index_lookup(tracer: Tracer, args: tuple, result: Any) -> None:
    _bump(tracer, "index_lookups")
    _bump(tracer, "index_records_scanned", args[0].record_count)


def _hook_pcap_read(tracer: Tracer, args: tuple, result: Any) -> None:
    _bump(tracer, "pcap_reads")


def _hook_frame_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    _bump(tracer, "frame_bytes", len(result))


def _hook_frame_rejections(tracer: Tracer, args: tuple, result: Any) -> None:
    for item in result:
        if type(item).__name__ == "FrameRejection":
            _bump(tracer, "frame_rejections")


def _hook_session_depth(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.remembered[id(args[0])] = args[0]
    _peak(tracer, "session_depth_max", args[0].queue_depth())


_HOOKS: Dict[str, Callable] = {
    "remember": _hook_remember,
    "writer_depth": _hook_writer_depth,
    "segment_read": _hook_segment_read,
    "index_lookup": _hook_index_lookup,
    "pcap_read": _hook_pcap_read,
    "frame_bytes": _hook_frame_bytes,
    "frame_rejections": _hook_frame_rejections,
    "session_depth": _hook_session_depth,
}


# ----------------------------------------------------------------------
# Installing and restoring
# ----------------------------------------------------------------------
class Installed:
    """The set of patched attributes; :meth:`restore` undoes them all."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, value: Any) -> None:
        # ``__dict__`` keeps the exact original (a function, property or
        # staticmethod object) so restore puts back the same object.
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _wrap_dispatch(tracer: Tracer, dispatch: Callable, entry_id: int) -> Callable:
    """``ScapSocket.dispatch_*`` that wraps the handler it registers, so
    the application's callbacks are spans (children of core.workers)."""

    def traced_dispatch(self, handler: Callable, cost: Optional[Callable] = None):
        return dispatch(self, tracer.wrap(handler, entry_id), cost)

    traced_dispatch.__wrapped__ = dispatch  # type: ignore[attr-defined]
    return traced_dispatch


def install(tracer: Tracer, in_daemon: bool = False) -> Installed:
    """Wrap every entry point in ``spec.LAYERS``; return the undo set."""
    installed = Installed()
    for entry_id, (layer, entry) in enumerate(tracer.entries):
        if layer in DAEMON_ONLY_LAYERS and not in_daemon:
            continue
        module_name, _, path = entry.target.partition(":")
        module = importlib.import_module(module_name)
        hook = _HOOKS.get(entry.hook)
        if "." in path:
            class_name, _, attr = path.partition(".")
            owner = getattr(module, class_name)
            original = vars(owner)[attr]
            if entry.hook == "callback":
                installed.patch(owner, attr, _wrap_dispatch(tracer, original, entry_id))
            elif isinstance(original, property):
                installed.patch(
                    owner, attr, property(tracer.wrap(original.fget, entry_id, hook))
                )
            else:
                installed.patch(owner, attr, tracer.wrap(original, entry_id, hook))
            continue
        # A module function: other modules hold it by name
        # (``from .segment import scan_records``), so patch every holder.
        original = getattr(module, path)
        wrapped = tracer.wrap(original, entry_id, hook)
        for holder in list(sys.modules.values()):
            name = getattr(holder, "__name__", "")
            if name.startswith("repro") and vars(holder).get(path) is original:
                installed.patch(holder, path, wrapped)
    return installed
