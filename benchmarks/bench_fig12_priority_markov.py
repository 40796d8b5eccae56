"""Figure 12: two-class priority chain loss probabilities (§7).

Regenerates the medium- vs high-priority loss curves for
ρ₁ = ρ₂ = 0.3 (ρ₁ being the cumulative medium+high load) and checks:
a few tens of slots drive both classes' loss to practically zero, with
the high class always (much) better off.  Cross-checked against the
exact 2N-state chain and the n-class generalization.
"""

from __future__ import annotations

import math

from repro.analysis import (
    BirthDeathChain,
    multi_class_loss_probabilities,
    two_class_loss_probabilities,
)

_RHO1 = 0.3  # (lambda1 + lambda2) / mu
_RHO2 = 0.3  # lambda2 / mu
_SLOTS = tuple(range(1, 41))


def _curves():
    medium, high = [], []
    for n in _SLOTS:
        med, hi = two_class_loss_probabilities(_RHO1, _RHO2, n)
        medium.append(med)
        high.append(hi)
    return medium, high


def test_fig12_priority_markov(emit):
    medium, high = _curves()

    rows = [f"{'N':>4} {'medium':>14} {'high':>14}"]
    for n in (1, 5, 10, 20, 30, 40):
        rows.append(f"{n:>4} {medium[n - 1]:>14.3e} {high[n - 1]:>14.3e}")
    emit("\n".join(rows), name="fig12_priority_markov")

    # Monotone decreasing in N; high strictly better than medium.
    assert all(a >= b for a, b in zip(medium, medium[1:]))
    assert all(a >= b for a, b in zip(high, high[1:]))
    assert all(hi < med for med, hi in zip(medium, high))

    # A few tens of slots suffice for both classes (paper's reading).
    assert medium[20 - 1] < 1e-8
    assert high[10 - 1] < 1e-8

    # Cross-check closed forms against the exact chain and the n-class
    # generalization.
    for n in (1, 5, 10, 20, 40):
        chain = BirthDeathChain.ppl_chain([_RHO1, _RHO2], n)
        med, hi = two_class_loss_probabilities(_RHO1, _RHO2, n)
        assert math.isclose(hi, chain.blocking_probability(), rel_tol=1e-9)
        assert math.isclose(med, chain.probability_at_or_above(n), rel_tol=1e-9)
        general = multi_class_loss_probabilities([_RHO1, _RHO2], n)
        assert math.isclose(general[0], med, rel_tol=1e-9)
        assert math.isclose(general[1], hi, rel_tol=1e-9)
