"""Tests for multi-application capture sharing (§5.6)."""

import pytest

from repro.core import SCAP_UNLIMITED_CUTOFF, ScapConfig
from repro.core.sharing import SharedApplication, SharedCaptureRuntime, merge_configs
from repro.filters import BPFFilter
from repro.traffic import campus_mix


def _config(**kwargs):
    kwargs.setdefault("memory_size", 1 << 22)
    return ScapConfig(**kwargs)


class TestMergeConfigs:
    def test_largest_cutoff_wins(self):
        a = _config()
        a.cutoffs.set_default(100)
        b = _config()
        b.cutoffs.set_default(5000)
        merged = merge_configs([a, b])
        assert merged.cutoffs.default == 5000

    def test_unlimited_cutoff_dominates(self):
        a = _config()
        a.cutoffs.set_default(100)
        b = _config()  # unlimited
        merged = merge_configs([a, b])
        assert merged.cutoffs.default == SCAP_UNLIMITED_CUTOFF

    def test_smallest_chunk_size(self):
        merged = merge_configs([_config(chunk_size=4096), _config(chunk_size=1024)])
        assert merged.chunk_size == 1024

    def test_filter_union(self):
        a = _config(bpf=BPFFilter("tcp port 80"))
        b = _config(bpf=BPFFilter("udp port 53"))
        merged = merge_configs([a, b])
        from repro.netstack import make_tcp_packet, make_udp_packet

        assert merged.bpf.matches(make_tcp_packet(1, 2, 3, 80))
        assert merged.bpf.matches(make_udp_packet(1, 2, 3, 53))
        assert not merged.bpf.matches(make_tcp_packet(1, 2, 3, 22))

    def test_flush_and_overload_merge(self):
        a = _config(flush_timeout=1.0, overload_cutoff=1000)
        b = _config(flush_timeout=0.2, overload_cutoff=9000)
        merged = merge_configs([a, b])
        assert merged.flush_timeout == 0.2
        assert merged.overload_cutoff == 9000

    def test_need_pkts_any(self):
        merged = merge_configs([_config(), _config(need_pkts=True)])
        assert merged.need_pkts

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_configs([])


class TestSharedCapture:
    @pytest.fixture(scope="class")
    def trace(self):
        return campus_mix(flow_count=50, seed=77)

    def test_two_apps_see_their_traffic(self, trace):
        web_bytes = []
        all_bytes = []
        web = SharedApplication("web-only", _config(bpf=BPFFilter("tcp port 80")))
        web.callbacks.on_data = lambda sd: web_bytes.append(sd.data_len)
        everything = SharedApplication("everything", _config())
        everything.callbacks.on_data = lambda sd: all_bytes.append(sd.data_len)

        shared = SharedCaptureRuntime([web, everything])
        results = shared.run(trace, 1e9)

        total = sum(f.total_bytes for f in trace.flows)
        web_total = sum(
            f.total_bytes for f in trace.flows
            if 80 in (f.five_tuple.src_port, f.five_tuple.dst_port)
        )
        assert sum(all_bytes) == total
        assert sum(web_bytes) == web_total
        by_name = {r.system: r for r in results}
        assert by_name["everything"].delivered_bytes == total
        assert by_name["web-only"].delivered_bytes == web_total

    def test_kernel_work_done_once(self, trace):
        """Reassembly happens once regardless of application count."""
        single = SharedCaptureRuntime([SharedApplication("a", _config())])
        single.run(trace, 1e9)
        single_softirq = single.runtime.host.softirq_load(0.1)

        triple = SharedCaptureRuntime(
            [SharedApplication(n, _config()) for n in ("a", "b", "c")]
        )
        triple.run(trace, 1e9)
        triple_softirq = triple.runtime.host.softirq_load(0.1)
        assert triple_softirq == pytest.approx(single_softirq, rel=1e-6)

    def test_cutoff_apps_get_prefix_only(self, trace):
        """An app with a small cutoff sees only early chunks even when
        another app forces full capture."""
        prefix_events = []
        small = SharedApplication("prefix", _config(chunk_size=1024))
        small.config.cutoffs.set_default(1024)
        small.callbacks.on_data = lambda sd: prefix_events.append(sd.data_offset)
        full = SharedApplication("full", _config(chunk_size=1024))

        shared = SharedCaptureRuntime([small, full])
        shared.run(trace, 1e9)
        assert prefix_events
        assert max(prefix_events) < 1024

    def test_requires_one_app(self):
        with pytest.raises(ValueError):
            SharedCaptureRuntime([])


def test_merge_reassembly_mode_prefers_strict():
    """If any sharing application wants STRICT normalization, the
    kernel must run STRICT (the more conservative mode)."""
    from repro.core import SCAP_TCP_FAST, SCAP_TCP_STRICT

    merged = merge_configs([
        _config(reassembly_mode=SCAP_TCP_FAST),
        _config(reassembly_mode=SCAP_TCP_STRICT),
    ])
    assert merged.reassembly_mode == SCAP_TCP_STRICT


# ----------------------------------------------------------------------
# The union of cutoff policies and of fields without a rule
# ----------------------------------------------------------------------
def _web_bytes(app_config, *others):
    """Data bytes of port-80 streams one application receives from
    ``campus_mix(flow_count=50, seed=77)`` at 1 Gbit/s, sharing the
    capture with applications of the ``others`` configs."""
    received = []

    def on_data(stream):
        if 80 in (stream.five_tuple.src_port, stream.five_tuple.dst_port):
            received.append(stream.data_len)

    app = SharedApplication("web", app_config)
    app.callbacks.on_data = on_data
    apps = [app] + [SharedApplication(f"other-{i}", c) for i, c in enumerate(others)]
    SharedCaptureRuntime(apps).run(campus_mix(flow_count=50, seed=77), 1e9)
    return sum(received)


def test_class_cutoff_survives_sharing():
    """A class cutoff of one application is not lost to another's
    default: sharing delivers what the application gets alone."""

    def web_unlimited():
        config = _config()
        config.cutoffs.set_default(100)
        config.cutoffs.add_class_cutoff(SCAP_UNLIMITED_CUTOFF, BPFFilter("tcp port 80"))
        return config

    other = _config()
    other.cutoffs.set_default(100)
    alone = _web_bytes(web_unlimited())
    assert alone == 349_389
    assert _web_bytes(web_unlimited(), other) == alone


def test_direction_cutoff_survives_sharing():
    a = _config()
    a.cutoffs.set_default(0)
    a.cutoffs.add_direction_cutoff(SCAP_UNLIMITED_CUTOFF, 1)
    b = _config()
    b.cutoffs.set_default(100)
    merged = merge_configs([a, b]).cutoffs
    from repro.core.stream import StreamDescriptor
    from repro.netstack import FiveTuple

    flow = FiveTuple(1, 2, 3, 80, 6)
    assert merged.effective_cutoff(StreamDescriptor(flow, 0, 6)) == 100
    assert merged.effective_cutoff(StreamDescriptor(flow, 1, 6)) == SCAP_UNLIMITED_CUTOFF
    assert not merged.is_trivial


def test_merged_cutoffs_take_the_largest_per_stream():
    from repro.core.stream import StreamDescriptor
    from repro.netstack import FiveTuple

    a = _config()
    a.cutoffs.set_default(500)
    a.cutoffs.add_class_cutoff(50, BPFFilter("udp"))
    b = _config()
    b.cutoffs.set_default(200)
    b.cutoffs.add_class_cutoff(9000, BPFFilter("udp port 53"))
    merged = merge_configs([a, b]).cutoffs
    tcp = StreamDescriptor(FiveTuple(1, 2, 3, 80, 6), 0, 6)
    dns = StreamDescriptor(FiveTuple(1, 2, 3, 53, 17), 0, 17)
    udp = StreamDescriptor(FiveTuple(1, 2, 3, 99, 17), 0, 17)
    assert merged.effective_cutoff(tcp) == 500
    assert merged.effective_cutoff(dns) == 9000
    assert merged.effective_cutoff(udp) == 200
    # A per-stream cutoff still overrides every scope.
    udp.cutoff = 7
    assert merged.effective_cutoff(udp) == 7
    # An application that keeps everything makes the union keep everything.
    assert merge_configs([a, b, _config()]).cutoffs.is_trivial


def test_agreed_fields_are_kept():
    merged = merge_configs([
        _config(reassembly_policy="first", fdir_initial_timeout=5.0),
        _config(reassembly_policy="first", fdir_initial_timeout=5.0),
    ])
    assert (merged.reassembly_policy, merged.fdir_initial_timeout) == ("first", 5.0)


@pytest.mark.parametrize("name, values", [
    ("reassembly_policy", ("first", "linux")),
    ("fdir_initial_timeout", (5.0, 2.0)),
])
def test_disagreement_without_a_rule_is_refused(name, values):
    configs = [_config(**{name: value}) for value in values]
    with pytest.raises(ValueError, match=name):
        merge_configs(configs)


def test_merging_one_config_reproduces_it():
    config = _config(
        reassembly_policy="first", fdir_initial_timeout=5.0, chunk_size=4096,
        overlap_size=100, flush_timeout=0.5, overload_cutoff=2048, worker_threads=3,
        bpf=BPFFilter("tcp"), need_pkts=True,
    )
    config.cutoffs.set_default(1000)
    config.cutoffs.add_direction_cutoff(10, 1)
    assert merge_configs([config]) == config


def test_shared_runtime_is_observed():
    """Every application's pool counts in the shared runtime's profile
    and busy time."""
    from repro.observability import Observability

    apps = [SharedApplication(name, _config()) for name in ("a", "b")]
    shared = SharedCaptureRuntime(apps, observability=Observability(enabled=True))
    shared.run(campus_mix(flow_count=30, seed=77), 1e9)
    runtime = shared.runtime
    report = runtime.profile()
    assert report.stage("event_dequeue") is not None
    assert report.stage("worker_callback") is not None
    softirq = sum(server.busy_seconds for server in runtime.host.softirq)
    pools = [app.workers.busy_seconds() for app in apps]
    assert all(busy > 0 for busy in pools)
    assert runtime.busy_seconds() == pytest.approx(softirq + sum(pools))
    assert report.coverage == pytest.approx(1.0, rel=1e-6)


def test_shared_runtime_totals_count_every_application():
    """The runtime's own result and stats sum the deliveries of every
    application, not the first one's; its user utilization is the busy
    fraction of all their workers together."""
    web = SharedApplication("web", _config(bpf=BPFFilter("tcp port 80")))
    everything = SharedApplication("everything", _config())
    shared = SharedCaptureRuntime([web, everything])
    shared.run(campus_mix(flow_count=30, seed=77), 1e9)
    runtime = shared.runtime
    assert web.workers.bytes_delivered == 234_271
    assert everything.workers.bytes_delivered == 871_446
    result = runtime.result(1e9, name="shared-kernel")
    assert result.delivered_bytes == runtime.aggregate().bytes_delivered == 1_105_717
    assert result.delivered_events == runtime.aggregate().events_processed == (
        web.workers.events_processed + everything.workers.events_processed
    )
    assert result.extra["events_dropped"] == (
        web.workers.events_dropped + everything.workers.events_dropped
    )
    busy = web.workers.busy_seconds() + everything.workers.busy_seconds()
    workers = len(web.workers.servers) + len(everything.workers.servers)
    assert result.user_utilization == pytest.approx(busy / (result.duration * workers))
