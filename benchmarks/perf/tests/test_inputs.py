"""The seed decides the inputs, and nothing else does."""

from benchmarks.perf import inputs, spec


def test_same_seed_same_digest_other_seed_other_digest():
    item = spec.workload("small_flows")
    first = inputs.trace_digest(inputs.build_trace(item, 3, 2))
    assert first == inputs.trace_digest(inputs.build_trace(item, 3, 2))
    assert first != inputs.trace_digest(inputs.build_trace(item, 4, 2))


def test_workloads_and_sizes_get_independent_traces():
    item = spec.workload("bulk_delivery")
    other = spec.workload("cutoff_subzero")  # same profile, other sub-seed
    digests = {
        inputs.trace_digest(inputs.build_trace(item, 11, 1)),
        inputs.trace_digest(inputs.build_trace(other, 11, 1)),
        inputs.trace_digest(inputs.build_trace(item, 11, 2)),
    }
    assert len(digests) == 3


def test_two_seeds_give_different_packets_of_the_same_shape():
    item = spec.workload("bulk_delivery")
    one, two = inputs.build_trace(item, 1, 2), inputs.build_trace(item, 2, 2)
    flows = 2 * (sum(count for count, _ in item.unit) + 1)
    assert len(one.flows) == len(two.flows) == flows
    assert sorted(f.server_bytes for f in one.flows if f.protocol == 6) == sorted(
        size for count, size in item.unit for _ in range(2 * count))
    assert abs(one.total_wire_bytes - two.total_wire_bytes) / one.total_wire_bytes < 0.02
    assert abs(len(one) - len(two)) / len(one) < 0.02
    assert {f.five_tuple for f in one.flows}.isdisjoint(f.five_tuple for f in two.flows)
