"""The wrappers: installed on every entry point, gone after restore."""

import importlib
import statistics
import sys

from benchmarks.perf import layers, phases, trace
from benchmarks.perf.speed import Speed


def _current():
    """The object behind every entry point right now, and every module
    that holds a wrapped module function by name."""
    found = {}
    for _, entry in trace.entry_table():
        module_name, _, path = entry.target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            owner, _, attr = path.partition(".")
            found[entry.target] = vars(getattr(module, owner))[attr]
        else:
            for name, holder in list(sys.modules.items()):
                if name.startswith("repro") and path in vars(holder):
                    found[f"{name}:{path}"] = vars(holder)[path]
    return found


def _median_wall(tiny, passes=5):
    item, trace_, _ = tiny
    speed = Speed()
    return statistics.median(
        wall / factor
        for _, wall, _, factor in (phases.capture_pass(trace_, item, speed) for _ in range(passes))
    )


def test_install_wraps_every_entry_and_restore_puts_the_same_objects_back(tiny):
    import repro.service  # noqa: F401  (so that its modules hold the functions)

    before = _current()
    tracer = trace.Tracer()
    installed = trace.install(tracer, in_daemon=True)
    try:
        during = _current()
        assert all(during[key] is not before[key] for key in before)
        item, trace_, _ = tiny
        phases.capture_pass(trace_, item, Speed())
    finally:
        installed.restore()
    after = _current()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    table = tracer.table()
    assert table["repro.core.runtime:ScapRuntime.process_batch"]["calls"] > 0
    assert table["repro.service.protocol:encode_frame"]["calls"] == 0


def test_an_untraced_pass_after_a_traced_one_costs_what_one_before_did(tiny):
    item, trace_, _ = tiny
    for attempt in range(3):  # a disturbed host can spoil one comparison
        before = _median_wall(tiny)
        installed = trace.install(trace.Tracer())
        try:
            phases.capture_pass(trace_, item, Speed())
        finally:
            installed.restore()
        after = _median_wall(tiny)
        if abs(after - before) / before <= 0.10:
            return
    raise AssertionError(f"pass took {before:.4f} s before tracing, {after:.4f} s after")


def test_self_time_is_span_time_minus_child_span_time():
    tracer = trace.Tracer()
    outer_id = 0
    inner_id = 1

    def inner():
        return sum(range(20000))

    wrapped_inner = tracer.wrap(inner, inner_id)

    def outer():
        return wrapped_inner() + wrapped_inner()

    tracer.wrap(outer, outer_id)()
    table = list(tracer.table().values())
    assert (table[outer_id]["calls"], table[inner_id]["calls"]) == (1, 2)
    assert abs(table[outer_id]["total_s"]
               - table[outer_id]["self_s"] - table[inner_id]["total_s"]) < 1e-9
    assert table[inner_id]["self_s"] == table[inner_id]["total_s"]


def test_a_generator_entry_point_is_charged_per_resume_not_for_its_consumer():
    tracer = trace.Tracer()

    def numbers():
        yield from range(3)

    consumed = [value for value in tracer.wrap(numbers, 0)()]
    assert consumed == [0, 1, 2]
    row = list(tracer.table().values())[0]
    assert row["calls"] == 4  # three items and the resume that ends it


def test_traced_capture_attributes_most_of_the_pass_to_layers(tiny):
    item, trace_, _ = tiny
    tracer = trace.Tracer()
    installed = trace.install(tracer)
    try:
        _, wall, _, _ = phases.capture_pass(trace_, item, Speed())
    finally:
        installed.restore()
    values = layers.layer_metrics(layers.process_record(tracer), wall, {
        "trace_overhead_ratio": 1.0, "service.daemon.overhead_share": 0.0,
        "service.daemon.command_p99_ms": 0.0, "service.daemon.threads": 0.0,
        "service.client.event_wait_s": 0.0,
    })
    attributed = sum(v for k, v in values.items() if k.endswith(".self_share"))
    assert 0.85 <= attributed <= 1.0
    assert values["nic.fdir.installs"] == 0
    assert all(values[f"{layer}.calls"] == 0 for layer in
               ("service.protocol", "service.session", "service.daemon", "service.client"))
    assert values["nic.batch.mean_len"] > 1
