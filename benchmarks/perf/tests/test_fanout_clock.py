"""The fan-out clock stops on the last expected event, never on a wait."""

from benchmarks.perf import phases
from benchmarks.perf.speed import Speed


def test_rate_depends_on_arrivals_not_on_when_the_caller_looked():
    stamps = [10.1, 10.2, 10.3, 10.4, 99.0]  # the fifth belongs to a later capture
    assert phases.fanout_rate(stamps, 10.0, held=0, expected=4) == 4 / (10.4 - 10.0)
    assert phases.fanout_rate(stamps, 10.2, held=2, expected=2) == 2 / (10.4 - 10.2)


def test_two_subscribers_drained_one_after_the_other_report_the_same_rate(tiny, pcap, tmp_path):
    item = tiny[0]
    session = phases.ServiceSession(str(tmp_path), "two", item, subscribers=2)
    ledger = phases.Ledger()
    try:
        speed = Speed()
        rates = [session.submit(pcap[0], ledger, speed)[3] for _ in range(5)]
    finally:
        session.close(ledger)
    assert ledger.failed == 0, ledger.failures
    # The old harness stamped the second subscriber after the first
    # one's 2 s drain timeout and so reported less than half its rate.
    first, second = sorted(rates, key=lambda pair: abs(pair[0] - pair[1]))[0]
    assert abs(first - second) / first <= 0.10
    assert all(len(pair) == 2 for pair in rates)
