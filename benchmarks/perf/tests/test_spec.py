"""BENCHMARK.json is the tables in spec.py, inside the contract's limits."""

import json
import os
import re

from benchmarks.perf import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.benchmark_json()


def test_contract_limits():
    data = spec.benchmark_json()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 2 <= len(data["workloads"]) <= 8
    assert 1 <= len(data["end_to_end"]) <= 16
    assert 1 <= len(data["per_layer"]) <= 128
    assert isinstance(data["run_seconds"], int) and 1 <= data["run_seconds"] <= 60
    names = [w["name"] for w in data["workloads"]]
    names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in data["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in data["end_to_end"] + data["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in data["end_to_end"])


def test_shares_and_phases():
    for item in spec.WORKLOADS:
        assert set(item.shares) == set(spec.PHASES)
        assert abs(sum(item.shares.values()) - 1.0) < 1e-9
        assert set(item.primary) <= set(spec.PHASES)
    assert {m.phase for m in spec.END_TO_END} <= set(spec.PHASES) | {None}
