"""Tests for the repro-scap command-line interface."""

import os

import pytest

from repro.tools import main


def test_generate_writes_pcap(tmp_path, capsys):
    out = str(tmp_path / "gen.pcap")
    assert main(["generate", "--flows", "20", "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "wrote" in captured and os.path.getsize(out) > 1000


def test_generate_with_patterns(tmp_path, capsys):
    out = str(tmp_path / "gen2.pcap")
    assert main(["generate", "--flows", "20", "--plant-patterns", "10", "--out", out]) == 0
    assert "planted" in capsys.readouterr().out


def test_capture_synthetic_delivery(capsys):
    assert main(["capture", "--flows", "20", "--rate", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "delivered" in out and "drop=" in out


def test_capture_from_pcap_round_trip(tmp_path, capsys):
    pcap = str(tmp_path / "rt.pcap")
    main(["generate", "--flows", "15", "--out", pcap])
    assert main(["capture", "--pcap", pcap, "--app", "delivery"]) == 0
    assert "streams" in capsys.readouterr().out


def test_capture_flowstats_export(tmp_path, capsys):
    csv = str(tmp_path / "flows.csv")
    assert main(
        ["capture", "--flows", "15", "--app", "flowstats",
         "--cutoff", "0", "--export-flows", csv]
    ) == 0
    lines = open(csv).read().splitlines()
    assert lines[0].startswith("src_ip,")
    assert len(lines) > 5


def test_capture_match(capsys):
    assert main(
        ["capture", "--flows", "15", "--app", "match", "--patterns", "20"]
    ) == 0
    assert "pattern matches found" in capsys.readouterr().out


def test_capture_with_filter(capsys):
    assert main(["capture", "--flows", "20", "--filter", "tcp port 80"]) == 0


def test_analyze_single_class(capsys):
    assert main(["analyze", "--rho", "0.5", "--slots", "5", "20"]) == 0
    out = capsys.readouterr().out
    assert "M/M/1/N" in out and "20" in out


def test_analyze_two_class(capsys):
    assert main(
        ["analyze", "--rho", "0.6", "--rho-high", "0.3", "--slots", "10"]
    ) == 0
    assert "Two-class" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_inspect_synthetic(capsys):
    assert main(["inspect", "--flows", "20"]) == 0
    out = capsys.readouterr().out
    assert "top ports" in out and "protocols" in out


def test_inspect_with_filter(capsys):
    assert main(["inspect", "--flows", "20", "--filter", "tcp port 80"]) == 0
    assert "tcp port 80" in capsys.readouterr().out


def test_anonymize_round_trip(tmp_path, capsys):
    src = str(tmp_path / "src.pcap")
    dst = str(tmp_path / "anon.pcap")
    main(["generate", "--flows", "10", "--out", src])
    assert main(["anonymize", "--pcap", src, "--out", dst, "--key", "secret"]) == 0
    assert "prefix-preserving" in capsys.readouterr().out
    from repro.netstack import read_pcap

    original = read_pcap(src)
    anonymized = read_pcap(dst)
    assert len(original) == len(anonymized)
    changed = sum(
        1 for a, b in zip(original, anonymized)
        if a.ip is not None and a.ip.src_ip != b.ip.src_ip
    )
    assert changed > 0
    # Ports and payloads survive anonymization.
    assert all(
        a.payload == b.payload for a, b in zip(original, anonymized)
    )


def test_capture_http(capsys):
    assert main(["capture", "--flows", "15", "--app", "http"]) == 0
    assert "HTTP transactions" in capsys.readouterr().out


def test_capture_match_with_snort_rules(tmp_path, capsys):
    rules = tmp_path / "web.rules"
    rules.write_text(
        'alert tcp any any -> any 80 (msg:"test"; content:"GET /"; sid:1;)\n'
        'alert tcp any any -> any 80 (content:"HTTP/1.1"; sid:2;)\n'
    )
    assert main(
        ["capture", "--flows", "10", "--app", "match", "--rules", str(rules)]
    ) == 0
    out = capsys.readouterr().out
    assert "extracted 2 content patterns" in out
    assert "pattern matches found" in out


def test_compare_side_by_side(capsys):
    assert main(["compare", "--flows", "60", "--rates", "1.0", "4.0"]) == 0
    out = capsys.readouterr().out
    assert "scap" in out and "libnids" in out and "snort" in out
    assert out.count("4.0G") == 3


def test_gendocs_writes_reference(tmp_path):
    from repro.tools.gendocs import main as gendocs_main

    target = str(tmp_path / "API.md")
    assert gendocs_main([target]) == 0
    content = open(target).read()
    assert "# API reference" in content
    assert "repro.core.api" in content
    assert "ScapSocket" in content


def test_stats_prometheus_to_stdout(capsys):
    assert main(["stats", "--flows", "30", "--rate", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE scap_core_packets_total counter" in out
    assert "scap_softirq_service_seconds_bucket" in out


def test_stats_json_to_file(tmp_path, capsys):
    import json

    out_path = str(tmp_path / "stats.json")
    assert main(
        ["stats", "--flows", "30", "--rate", "2.0", "--format", "json",
         "--out", out_path]
    ) == 0
    assert "wrote json metrics" in capsys.readouterr().out
    data = json.load(open(out_path))
    assert "scap_core_packets_total" in data["metrics"]


def test_trace_prints_events(capsys):
    assert main(["trace", "--flows", "30", "--rate", "2.0", "--limit", "5"]) == 0
    out = capsys.readouterr().out
    assert "stream_created" in out or "stream_terminated" in out
    assert "matching events shown" in out


def test_trace_hook_filter(capsys):
    assert main(
        ["trace", "--flows", "30", "--rate", "2.0", "--hook", "stream_created"]
    ) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert lines and all("stream_created" in line for line in lines)


def _flow_arg_from_key(key):
    """``"a:p > b:q/6"`` -> the CLI flow syntax ``"a:p-b:q/tcp"``."""
    src, _, rest = key.partition(" > ")
    dst, _, _proto = rest.rpartition("/")
    return f"{src}-{dst}/tcp"


def test_stats_parity_check_passes(capsys, tmp_path):
    out_path = str(tmp_path / "stats.prom")
    assert main(
        ["stats", "--flows", "30", "--rate", "2.0", "--check-parity",
         "--out", out_path]
    ) == 0
    assert "parity check passed" in capsys.readouterr().out


def test_trace_stream_filter(capsys):
    assert main(
        ["timeline", "--flows", "30", "--rate", "4.0", "--cutoff", "4096",
         "--limit", "1"]
    ) == 0
    key = capsys.readouterr().out.splitlines()[0].split("  ")[0]
    flow = _flow_arg_from_key(key)
    assert main(
        ["trace", "--flows", "30", "--rate", "4.0", "--cutoff", "4096",
         "--stream", flow]
    ) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert lines, "expected the stream's own trace events"
    assert all("five_tuple=" in line for line in lines)
    src = key.partition(" > ")[0]
    assert all(src in line for line in lines)


def test_profile_prints_stage_table(capsys):
    assert main(["profile", "--flows", "30", "--rate", "4.0"]) == 0
    out = capsys.readouterr().out
    assert "stage" in out and "reassembly" in out and "worker_callback" in out
    total = [line for line in out.splitlines() if line.startswith("total")][0]
    coverage = float(total.split()[1].rstrip("%"))
    assert coverage >= 95.0


def test_profile_json(capsys):
    import json

    assert main(["profile", "--flows", "30", "--rate", "4.0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coverage"] >= 0.95
    assert any(s["stage"] == "reassembly" for s in payload["stages"])


def test_timeline_lists_connections(capsys):
    assert main(
        ["timeline", "--flows", "30", "--rate", "4.0", "--limit", "5"]
    ) == 0
    out = capsys.readouterr().out
    assert "connections reconstructed" in out
    assert "status=" in out


def test_timeline_single_flow_lifecycle(capsys):
    args = ["--flows", "30", "--rate", "4.0", "--cutoff", "4096"]
    assert main(["timeline"] + args + ["--limit", "1"]) == 0
    key = capsys.readouterr().out.splitlines()[0].split("  ")[0]
    assert main(["timeline", _flow_arg_from_key(key)] + args) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith(key)
    assert "stream_created" in out and "stream_terminated" in out


def test_timeline_unknown_flow_fails(capsys):
    assert main(
        ["timeline", "203.0.113.1:1-203.0.113.2:2/tcp", "--flows", "10",
         "--rate", "2.0"]
    ) == 1
    assert "no retained trace events" in capsys.readouterr().out


def test_chaos_passes_and_is_deterministic(tmp_path, capsys):
    store = str(tmp_path / "chaos-store")
    code = main(
        ["chaos", "--seed", "42", "--flows", "12", "--records", "24",
         "--runs", "2", "--store", store]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "chaos soak: PASS" in out
    assert "schedule digest:" in out
    assert "identical fault schedule" in out


def test_chaos_schedule_listing(capsys):
    code = main(
        ["chaos", "--seed", "7", "--intensity", "0.1", "--flows", "8",
         "--records", "16", "--schedule"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert " wire " in out or " memory " in out or " sched " in out


# ---------------------------------------------------------------------------
# Option surface: every subcommand's flags, defaults and mutual exclusions,
# as the parser declared them before the shared option groups existed.
# ---------------------------------------------------------------------------
_SOURCE = {"--pcap": None, "--flows": 300, "--seed": 7}
_REPLAY = {"--rate": 1.0, "--cutoff": None, "--memory-mb": 64}
_ENDPOINT = {"--unix": None, "--tcp": None, "--token": None}
SOURCE_COMMANDS = ("capture", "inspect", "stats", "trace", "profile", "timeline", "record")

OPTION_DEFAULTS = {
    "generate": {"--flows": 500, "--seed": 7, "--max-flow-bytes": 2_000_000,
                 "--plant-patterns": 0, "--out": None},
    "capture": {**_SOURCE, **_REPLAY, "--app": "delivery", "--workers": 1,
                "--filter": "", "--patterns": 200, "--rules": None,
                "--export-flows": None},
    "bench": {"figure": None},
    "inspect": {**_SOURCE, "--filter": ""},
    "anonymize": {"--pcap": None, "--out": None, "--key": "scap-repro-default-key"},
    "compare": {"--flows": 400, "--seed": 7, "--rates": [1.0, 2.5, 4.0, 6.0]},
    "stats": {**_SOURCE, **_REPLAY, "--format": "prometheus", "--out": None,
              "--check-parity": False},
    "trace": {**_SOURCE, **_REPLAY, "--hook": None, "--stream": None,
              "--limit": 50, "--capacity": 65536},
    "profile": {**_SOURCE, **_REPLAY, "--json": False},
    "timeline": {**_SOURCE, **_REPLAY, "flow": None, "--limit": 30,
                 "--capacity": 65536},
    "scapcheck": {},
    "record": {**_SOURCE, **_REPLAY, "--store": None, "--cores": 2,
               "--compress": False, "--segment-mb": 16,
               "--max-bytes": None, "--max-age": None, "--class-quota": None},
    "query": {"--store": None, "--flow": None, "--start": None, "--end": None,
              "--dump": None, "--limit": 20},
    "replay": {**_REPLAY, "--store": None, "--flow": None, "--start": None,
               "--end": None},
    "chaos": {"--seed": 0, "--intensity": 0.05, "--flows": 24, "--records": 48,
              "--memory-mb": 64, "--store": None, "--runs": 1, "--schedule": False},
    "serve": {"--unix": None, "--tcp": None, "--store": None, "--token": None,
              "--max-subscriptions": 8, "--max-queued-events": 1024,
              "--eviction-drop-limit": None, "--global-event-budget": None,
              "--memory-mb": 64, "--cores": 8, "--no-control": False,
              "--observability": False, "--http": None,
              "--telemetry-cadence": 1.0},
    "spans": {**_ENDPOINT, "--trace-id": None, "--slowest": None, "--limit": None},
    "top": {**_ENDPOINT, "--interval": 2.0, "--count": 0, "--once": False,
            "--json": False},
    "analyze": {"--rho": 0.5, "--rho-high": None, "--slots": [5, 10, 20, 50, 100]},
}
REQUIRED = {
    "generate": {"--out"}, "bench": {"figure"}, "anonymize": {"--pcap", "--out"},
    "record": {"--store"}, "query": {"--store"}, "replay": {"--store"},
}
EXCLUSIONS = {
    **{name: [({"--pcap", "--flows"}, False)] for name in SOURCE_COMMANDS},
    "spans": [({"--unix", "--tcp"}, True)],
    "top": [({"--unix", "--tcp"}, True)],
}
CHOICES = {
    ("bench", "figure"): ("fig03", "fig04", "fig05", "fig06", "fig08", "fig09", "fig10"),
    ("capture", "--app"): ("flowstats", "delivery", "match", "http"),
    ("stats", "--format"): ("prometheus", "json"),
}


def _subcommands():
    import argparse

    from repro.tools.cli import build_parser

    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _option_name(action):
    return "|".join(action.option_strings) or action.dest


def test_option_surface_is_unchanged():
    import argparse

    commands = _subcommands()
    assert list(commands) == list(OPTION_DEFAULTS)
    for name, parser in commands.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        defaults = {_option_name(a): a.default for a in actions}
        assert defaults == OPTION_DEFAULTS[name], name
        required = {_option_name(a) for a in actions if a.required}
        assert required == REQUIRED.get(name, set()), name
        exclusions = [
            ({_option_name(a) for a in group._group_actions}, group.required)
            for group in parser._mutually_exclusive_groups
        ]
        assert exclusions == EXCLUSIONS.get(name, []), name
        for action in actions:
            if (name, _option_name(action)) in CHOICES:
                assert tuple(action.choices) == CHOICES[(name, _option_name(action))]


@pytest.mark.parametrize("command", SOURCE_COMMANDS)
def test_pcap_and_flows_are_exclusive(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--pcap", "x", "--flows", "3"])
    assert excinfo.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
