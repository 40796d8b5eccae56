"""``run.py --scale tiny``: every metric, by name, with its unit."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.perf import spec


def _run(root, *args, cwd=None):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "perf", "run.py"), *args],
        cwd=cwd or root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [item.name for item in spec.WORKLOADS])
def test_untraced_run_prints_every_end_to_end_metric(root, workload):
    done = _run(root, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--scale", "tiny", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric.name: metric.unit for metric in spec.END_TO_END}
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", [item.name for item in spec.WORKLOADS])
def test_traced_run_prints_every_per_layer_metric(root, workload, tmp_path):
    detail = str(tmp_path / "detail.json")
    spans = str(tmp_path / "spans.json")
    done = _run(root, "--workload", workload, "--seed", "5", "--scale", "tiny", "--trace", "1",
                "--detail", detail, "--trace-out", spans)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric.name: metric.unit for metric in spec.per_layer_metrics()}
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    assert metrics["trace_overhead_ratio"] > 0  # one tiny pass each: too noisy to say more
    service_calls = sum(metrics[f"service.{part}.calls"]
                        for part in ("protocol", "session", "daemon", "client"))
    assert (service_calls > 0) == (workload == "service_fanout")
    assert (metrics["nic.fdir.installs"] > 0) == (workload == "cutoff_subzero")
    with open(spans) as handle:
        dump = json.load(handle)
    assert dump["span_fields"] == ["thread", "entry", "parent", "start_ns", "end_ns"]
    assert any(process["span_rows"] for process in dump["processes"])
    assert not os.path.exists(os.path.join(root, "benchmarks", "perf", ".work"))


def test_without_the_program_the_command_fails_and_prints_no_result(root, tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(os.path.join(root, "benchmarks", "perf"), bare / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    done = _run(root, "--workload", "bulk_delivery", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(bare))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
