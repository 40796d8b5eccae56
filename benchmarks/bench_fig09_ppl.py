"""Figure 9: prioritized packet loss under overload (§6.7).

Paper claims reproduced here:
  * With web (port-80) streams marked high priority and the same
    single-worker pattern-matching application, no high-priority packet
    is dropped until well past the overall saturation point, while
    low-priority traffic absorbs all of the loss.
  * Only at the very top rate does a small high-priority loss appear
    (2.3 % at 6 Gbit/s in the paper, against 81.5 % overall).
"""

from __future__ import annotations

from repro.bench import fig09_ppl_priorities, format_series, get_scale


def _metrics():
    return [
        ("drop_low%", lambda r: r.priority_drop_rate(0) * 100, "7.2f"),
        ("drop_high%", lambda r: r.priority_drop_rate(1) * 100, "7.2f"),
        ("drop_all%", lambda r: r.drop_rate * 100, "7.2f"),
    ]


def test_fig09_ppl_priorities(emit):
    series = fig09_ppl_priorities(get_scale())
    emit(format_series(series, _metrics()), name="fig09_ppl")

    rates = series.xs()
    top = rates[-1]
    overloaded = [
        x for x in rates if series.get("scap-ppl", x).priority_drop_rate(0) > 0.05
    ]
    assert overloaded, "the sweep never overloaded the worker"

    # Everywhere except (at most) the very top rate, high-priority
    # traffic rides through losslessly while low priority bleeds.
    for x in rates[:-1]:
        result = series.get("scap-ppl", x)
        assert result.priority_drop_rate(1) <= 0.02, (x, result.drops_by_priority)

    top_result = series.get("scap-ppl", top)
    low_drop = top_result.priority_drop_rate(0)
    high_drop = top_result.priority_drop_rate(1)
    assert low_drop > 0.3, "low priority should absorb heavy loss at the top rate"
    assert high_drop < 0.3 * low_drop, (high_drop, low_drop)
