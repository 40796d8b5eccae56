"""Ablations: symmetric RSS seeding and dynamic load balancing (§2.4).

* The Woo–Park symmetric RSS key sends both directions of every
  connection to the same core; the stock Microsoft key splits most
  connections across two cores, breaking the same-core kernel/worker
  affinity Scap's design relies on.
* Dynamic FDIR rebalancing bounds how far the most loaded core can
  drift from its fair share when the hash distributes streams unevenly.
  On the scenario trace it redirects nothing: the table's
  ``redirections`` count (``balancer.redirections``) is 0, so the
  ``static`` and ``dynamic`` rows are identical and the claim holds
  without the balancer acting.  ``LoadBalancer`` moves a new stream
  only when its core holds more than ``threshold`` (2.0) times its
  fair share of live streams; the packet load per queue reaches about
  1.8x fair, but the live stream counts never cross the threshold.
"""

from __future__ import annotations

from repro.bench import get_scale
from repro.bench.scenarios import _trace
from repro.core import ScapConfig, ScapRuntime
from repro.nic import MICROSOFT_RSS_KEY, SYMMETRIC_RSS_KEY, RSSHasher


def _direction_affinity(key: bytes, trace) -> float:
    """Fraction of connections whose two directions share a queue."""
    hasher = RSSHasher(8, key)
    same = 0
    flows = trace.flows
    for flow in flows:
        ft = flow.five_tuple
        if hasher.queue_for(ft) == hasher.queue_for(ft.reversed()):
            same += 1
    return same / len(flows)


def test_ablation_symmetric_rss(emit):
    trace = _trace(get_scale(), planted=False)
    symmetric = _direction_affinity(SYMMETRIC_RSS_KEY, trace)
    stock = _direction_affinity(MICROSOFT_RSS_KEY, trace)
    emit(
        f"{'key':>12} {'same-core direction affinity':>30}\n"
        f"{'symmetric':>12} {symmetric * 100:29.1f}%\n"
        f"{'microsoft':>12} {stock * 100:29.1f}%",
        name="ablation_symmetric_rss",
    )
    assert symmetric == 1.0
    assert stock < 0.5


def test_ablation_load_balancing(emit):
    trace = _trace(get_scale(), planted=False)

    def run(enable):
        runtime = ScapRuntime(
            ScapConfig(memory_size=1 << 24),
            enable_load_balancing=enable,
        )
        runtime.run(trace, 1e9)
        # Count streams whose packets each core received, from NIC stats.
        return runtime, runtime.nic.stats.per_queue

    plain_runtime, plain_queues = run(False)
    balanced_runtime, balanced_queues = run(True)
    rows = [f"{'config':>10} " + " ".join(f"q{i:<6}" for i in range(8)) + " redirections"]
    rows.append(f"{'static':>10} " + " ".join(f"{q:<7}" for q in plain_queues) + f" {'-':>12}")
    rows.append(
        f"{'dynamic':>10} " + " ".join(f"{q:<7}" for q in balanced_queues)
        + f" {balanced_runtime.balancer.redirections:>12}"
    )
    emit("\n".join(rows), name="ablation_load_balancing")

    fair = sum(plain_queues) / len(plain_queues)
    worst_static = max(plain_queues) / fair
    worst_dynamic = max(balanced_queues) / (sum(balanced_queues) / len(balanced_queues))
    # Dynamic balancing never makes the worst core meaningfully worse.
    assert worst_dynamic <= worst_static * 1.10
    assert balanced_runtime.balancer is not None
