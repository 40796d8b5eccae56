"""Cross-validation: the §7 queueing formulas vs event simulation.

Drives the same :class:`QueueServer` primitive the capture pipelines
use with Poisson arrivals and exponential service, and checks the
measured loss probability against equation (1) — tying the analysis
module to the simulation substrate.
"""

import random

import pytest

from repro.analysis import mm1n_loss_probability
from repro.kernelsim import QueueServer


def _simulate_mm1n(rho: float, slots: int, arrivals: int, seed: int) -> float:
    rng = random.Random(seed)
    service_rate = 1.0
    arrival_rate = rho * service_rate
    server = QueueServer(slots, name="mm1n")
    now = 0.0
    dropped = 0
    for _ in range(arrivals):
        now += rng.expovariate(arrival_rate)
        if server.would_accept(now, 1):
            server.push(now, 1, rng.expovariate(service_rate))
        else:
            dropped += 1
    return dropped / arrivals


@pytest.mark.parametrize(
    "rho,slots",
    [(0.5, 2), (0.8, 3), (0.9, 5), (1.5, 4), (0.95, 8)],
)
def test_simulation_matches_formula(rho, slots):
    measured = _simulate_mm1n(rho, slots, arrivals=60_000, seed=17)
    predicted = mm1n_loss_probability(rho, slots)
    assert measured == pytest.approx(predicted, abs=0.02), (measured, predicted)


def test_simulation_negligible_loss_when_oversized():
    assert _simulate_mm1n(0.3, 40, arrivals=20_000, seed=5) == 0.0
    assert mm1n_loss_probability(0.3, 40) < 1e-20
