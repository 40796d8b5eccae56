"""Ablation: PPL base threshold.

The base threshold sets how much memory PPL leaves unguarded: a low
threshold starts shedding low-priority load early (protecting the
privileged class conservatively), a high threshold admits everything
until memory is nearly gone and then sheds in a narrow band.  §7's
analysis says a modest band suffices; this measures it end to end.
"""

from __future__ import annotations

from repro.apps import PatternMatchApp
from repro.bench import get_scale
from repro.bench.scenarios import GBIT, _buffers, _patterns, _trace

THRESHOLDS = (0.3, 0.5, 0.8)


def _sweep_with_threshold(rate_gbps: float = 5.0):
    from repro.apps import attach_app
    from repro.core import Parameter, ScapSocket

    scale = get_scale()
    trace = _trace(scale, planted=True)
    patterns = list(_patterns(scale.pattern_count))
    _, memory = _buffers(scale, trace)
    results = {}
    for threshold in THRESHOLDS:
        app = PatternMatchApp.for_trace(trace, patterns)
        socket = ScapSocket(trace, rate_bps=rate_gbps * GBIT, memory_size=memory)
        socket.set_parameter(Parameter.BASE_THRESHOLD, threshold)

        def on_creation(sd, socket=socket):
            if {22, 25, 110} & {sd.five_tuple.src_port, sd.five_tuple.dst_port}:
                socket.set_stream_priority(sd, 1)

        attach_app(socket, app)
        base_creation = socket._callbacks["creation"]

        def creation(sd, base=base_creation, hook=on_creation):
            hook(sd)
            if base is not None:
                base(sd)

        socket.dispatch_creation(creation, cost=socket._cost_hooks["creation"])
        results[threshold] = socket.start_capture(name=f"base={threshold}")
    return results


def test_ablation_ppl_threshold(emit):
    results = _sweep_with_threshold()
    rows = [f"{'base':>6} {'drop_low%':>10} {'drop_high%':>11} {'drop_all%':>10}"]
    for threshold, result in results.items():
        rows.append(
            f"{threshold:>6} {result.priority_drop_rate(0) * 100:10.2f} "
            f"{result.priority_drop_rate(1) * 100:11.2f} "
            f"{result.drop_rate * 100:10.2f}"
        )
    emit("\n".join(rows), name="ablation_ppl_threshold")

    for threshold, result in results.items():
        # The privileged class survives at every threshold; the band
        # above base_threshold is what protects it (§7).
        assert result.priority_drop_rate(1) <= 0.05, (threshold, result.drops_by_priority)
        assert result.priority_drop_rate(0) > result.priority_drop_rate(1)
