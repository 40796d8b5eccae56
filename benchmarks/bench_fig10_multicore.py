"""Figure 10: scaling with worker threads (§6.8).

Paper claims reproduced here:
  * At a fixed overload rate, packet loss falls as worker threads are
    added (Fig 10a; 4 Gbit/s becomes loss-free at ~7 workers).
  * The maximum loss-free rate grows roughly linearly with the worker
    count — 1 Gbit/s with one worker to ~5.5 Gbit/s with eight (not a
    full 8×: the kernel side shares the same cores).
"""

from __future__ import annotations

from conftest import needs_small_scale

from repro.bench import (
    fig10_max_lossfree_rate,
    fig10_worker_scaling,
    format_series,
    get_scale,
)


def test_fig10a_drop_vs_workers(emit):
    series = fig10_worker_scaling(get_scale())
    metrics = [("drop%", lambda r: r.drop_rate * 100, "6.2f")]
    emit(format_series(series, metrics), name="fig10a_drop_vs_workers")

    workers = series.xs()
    for system in series.systems():
        drops = [series.get(system, w).drop_rate for w in workers]
        # More workers never hurt much, and substantially help overall.
        assert drops[-1] <= drops[0] + 0.02, (system, drops)
        if drops[0] > 0.05:
            assert drops[-1] < 0.6 * drops[0], (system, drops)
    # The middle rate becomes loss-free with enough workers.
    mid = series.systems()[1]  # scap-4G
    assert series.get(mid, workers[-1]).drop_rate < 0.01, mid


@needs_small_scale
def test_fig10b_max_lossfree_rate(emit):
    """Not run at ``tiny``: each sweep point replays only a few
    milliseconds of traffic, so one burst decides a point.  Seven
    workers read 5.0 Gbit/s there, against 5.5 for six."""
    best = fig10_max_lossfree_rate(get_scale())
    rows = [f"{'workers':>8} {'max loss-free Gbit/s':>22}"]
    rows += [f"{w:>8} {rate:>22.2f}" for w, rate in sorted(best.items())]
    emit("\n".join(rows), name="fig10b_max_lossfree_rate")

    workers = sorted(best)
    # Monotone non-decreasing, and strongly scaling overall.
    for lo, hi in zip(workers, workers[1:]):
        assert best[hi] >= best[lo]
    assert best[workers[-1]] >= 3.0 * max(best[workers[0]], 0.5), best
