"""compare: bounds applied per (workload, metric)."""

import copy
import json

from benchmarks.perf import compare, spec
from benchmarks.perf.stats import summarize


def _run(scale=1.0, spread=0.01):
    metrics = {}
    for metric in spec.END_TO_END:
        worse = scale if metric.better == "lower" else 1.0 / scale
        samples = [100.0 * worse * (1.0 + spread * step) for step in (-2, -1, 0, 1, 2)]
        metrics[metric.name] = summarize(samples, metric.unit)
    return {"workloads": {"bulk_delivery": {"attempted": 100, "failed": 0, "metrics": metrics}}}


def _bounds():
    return {m["name"]: m for m in spec.benchmark_json()["end_to_end"]}


def test_a_file_against_itself_is_ok(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_run()))
    assert compare.main(str(path), str(path)) == 0
    out = capsys.readouterr().out
    assert "0 regressed, 0 unresolved" in out
    assert out.count(" ok") >= len(spec.END_TO_END)


def test_a_slowdown_past_every_bound_is_flagged_on_every_metric():
    rows, more_failures = compare.compare_runs(_run(), _run(scale=1.5), _bounds())
    assert not more_failures
    assert len(rows) == len(spec.END_TO_END)
    assert {row["verdict"] for row in rows} == {"regressed"}


def test_a_small_slowdown_is_inside_every_bound():
    rows, _ = compare.compare_runs(_run(), _run(scale=1.05), _bounds())
    assert {row["verdict"] for row in rows} == {"ok"}


def test_wide_overlapping_samples_are_unresolved_not_regressed():
    rows, _ = compare.compare_runs(_run(spread=0.2), _run(scale=1.5, spread=0.2), _bounds())
    assert {row["verdict"] for row in rows} == {"unresolved"}


def test_more_failed_operations_fail_the_comparison(tmp_path):
    base, change = _run(), copy.deepcopy(_run())
    change["workloads"]["bulk_delivery"]["failed"] = 1
    rows, more_failures = compare.compare_runs(base, change, _bounds())
    assert more_failures and {row["verdict"] for row in rows} == {"ok"}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(change))
    assert compare.main(str(a), str(b)) == 1
