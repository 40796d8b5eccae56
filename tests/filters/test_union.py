"""The filter union that shared captures and the daemon keep with."""

import pytest

from repro.core import ScapConfig
from repro.core.sharing import merge_configs
from repro.filters import BPFFilter
from repro.traffic import campus_mix

PART_SETS = [
    ("tcp port 80", ""),
    ("", ""),
    ("tcp port 80", "udp port 53", "src net 10.0.0.0/8 and port 443"),
    ("port 80 or 443", "udp"),
]


@pytest.fixture(scope="module")
def trace():
    return campus_mix(flow_count=20, seed=3)


@pytest.mark.parametrize("expressions", PART_SETS)
def test_merged_filter_expression_compiles_and_agrees(trace, expressions):
    """``merge_configs``' union is a filter whose own expression
    compiles to the same disjunction, on packets and on five-tuples."""
    parts = [BPFFilter(expression) for expression in expressions]
    union = merge_configs([ScapConfig(bpf=part) for part in parts]).bpf
    recompiled = BPFFilter(union.expression)
    for packet in trace.packets:
        expected = any(part.matches(packet) for part in parts)
        assert union.matches(packet) == recompiled.matches(packet) == expected
    for flow in trace.flows:
        for five_tuple in (flow.five_tuple, flow.five_tuple.reversed()):
            expected = any(part.matches_five_tuple(five_tuple) for part in parts)
            assert union.matches_five_tuple(five_tuple) == expected
            assert recompiled.matches_five_tuple(five_tuple) == expected
    assert union.is_match_all == any(part.is_match_all for part in parts)


def test_filter_union_of_one_is_that_filter():
    from repro.filters import filter_union

    web = BPFFilter("tcp port 80")
    assert filter_union([web]) is web
    with pytest.raises(ValueError):
        filter_union([])
