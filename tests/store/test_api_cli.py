"""API surface (scap_set_store / scap_store_stats / stats fields) and CLI."""

import pytest

from repro import (
    scap_create,
    scap_get_stats,
    scap_set_cutoff,
    scap_set_store,
    scap_start_capture,
    scap_store_stats,
)
from repro.apps import StreamRecorder
from repro.core import ScapSocket
from repro.observability import Observability
from repro.store import StreamStore
from repro.tools.cli import main
from repro.traffic import campus_mix


def _trace():
    return campus_mix(flow_count=20, seed=7)


class TestApi:
    def test_store_stats_without_store_raises(self):
        sc = scap_create(_trace(), 64 << 20)
        with pytest.raises(RuntimeError):
            scap_store_stats(sc)

    def test_set_store_after_start_raises(self, tmp_path):
        store = StreamStore(str(tmp_path))
        sc = scap_create(_trace(), 64 << 20, rate_bps=1e9)
        scap_start_capture(sc)
        with pytest.raises(RuntimeError):
            scap_set_store(sc, StreamRecorder(store))
        store.close()

    def test_scap_stats_carry_store_fields(self, tmp_path):
        store = StreamStore(str(tmp_path))
        sc = scap_create(_trace(), 64 << 20, rate_bps=1e9)
        scap_set_cutoff(sc, 4096)
        scap_set_store(sc, StreamRecorder(store))
        scap_start_capture(sc)
        stats = scap_get_stats(sc)
        assert stats.stored_bytes > 0
        assert stats.stored_bytes == scap_store_stats(sc).stored_bytes
        assert stats.evicted_bytes == 0
        assert stats.writer_queue_drops == 0

    def test_stats_default_to_zero_without_store(self):
        sc = scap_create(_trace(), 64 << 20, rate_bps=1e9)
        scap_start_capture(sc)
        stats = scap_get_stats(sc)
        assert stats.stored_bytes == 0
        assert stats.evicted_bytes == 0

    def test_recorder_composes_with_app_callback(self, tmp_path):
        from repro import scap_dispatch_data

        store = StreamStore(str(tmp_path))
        sc = scap_create(_trace(), 64 << 20, rate_bps=1e9)
        seen = bytearray()
        scap_dispatch_data(sc, lambda sd: seen.extend(sd.data))
        scap_set_store(sc, StreamRecorder(store))
        scap_start_capture(sc)
        assert len(seen) > 0  # the app still ran underneath the recorder
        assert scap_store_stats(sc).stored_bytes > 0


class TestSanitizedCapture:
    def test_env_sanitizers_reach_the_store(self, tmp_path, monkeypatch):
        """SCAP_SANITIZE=1 must wire the runtime's sanitizer context into
        the store's writer ledger — and a clean run must stay silent."""
        from repro.sanitizers import SANITIZE_ENV

        monkeypatch.setenv(SANITIZE_ENV, "1")
        store = StreamStore(str(tmp_path))
        sc = scap_create(_trace(), 64 << 20, rate_bps=1e9)
        scap_set_cutoff(sc, 4096)
        scap_set_store(sc, StreamRecorder(store))
        scap_start_capture(sc)  # teardown balance checked inside
        assert store.writer._san is not None
        assert store.writer._san.store.outstanding == store.writer.outstanding_bytes
        store.close()


class TestExporters:
    def test_store_metrics_reach_prometheus_export(self, tmp_path):
        obs = Observability(enabled=True)
        store = StreamStore(str(tmp_path), observability=obs)
        socket = ScapSocket(
            _trace(), rate_bps=1e9, memory_size=64 << 20, observability=obs
        )
        socket.set_store(StreamRecorder(store))
        socket.start_capture()
        text = socket.export_metrics("prometheus")
        assert "scap_store_enqueued_bytes_total" in text
        assert "scap_store_written_bytes_total" in text
        assert "scap_store_segments_sealed_total" in text
        assert 'scap_store_queue_depth_bytes{core="0"}' in text

    def test_store_metrics_reach_json_export(self, tmp_path):
        import json

        obs = Observability(enabled=True)
        store = StreamStore(str(tmp_path), observability=obs)
        socket = ScapSocket(
            _trace(), rate_bps=1e9, memory_size=64 << 20, observability=obs
        )
        socket.set_store(StreamRecorder(store))
        socket.start_capture()
        payload = json.loads(socket.export_metrics("json"))
        metrics = payload["metrics"]
        assert "scap_store_written_bytes_total" in metrics
        written = metrics["scap_store_written_bytes_total"]["values"][0]["value"]
        assert written > 0


class TestCli:
    def test_record_query_replay_roundtrip(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        assert main([
            "record", "--flows", "20", "--seed", "7", "--cutoff", "10240",
            "--store", directory, "--rate", "2.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "stored" in out and "storage reduction" in out

        assert main(["query", "--store", directory, "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "streams" in out and "payload bytes" in out

        assert main(["replay", "--store", directory, "--rate", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out

    def test_query_flow_filter_and_dump(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        main(["record", "--flows", "10", "--store", directory])
        capsys.readouterr()
        main(["query", "--store", directory, "--limit", "1"])
        line = capsys.readouterr().out.splitlines()[1].strip()
        flow = line.split()[0]  # "IP:PORT-IP:PORT/tcp"
        dump = str(tmp_path / "dump")
        assert main([
            "query", "--store", directory, "--flow", flow, "--dump", dump,
        ]) == 0
        out = capsys.readouterr().out
        assert "1 connections" in out and "dumped" in out
        import os

        assert os.listdir(dump)

    def test_record_with_retention_flags(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        assert main([
            "record", "--flows", "20", "--store", directory,
            "--max-bytes", "20000", "--class-quota", "port 80=5000",
        ]) == 0
        out = capsys.readouterr().out
        assert "retention evicted" in out

    def test_replay_empty_selection_fails_cleanly(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        main(["record", "--flows", "5", "--store", directory])
        capsys.readouterr()
        assert main([
            "replay", "--store", directory, "--start", "1000000",
        ]) == 1
        assert "nothing stored" in capsys.readouterr().out

    def test_bad_flow_spec_rejected(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        main(["record", "--flows", "5", "--store", directory])
        capsys.readouterr()
        # Malformed values are usage errors: exit 2 with a usage line,
        # before any capture, store or daemon starts.
        for argv in (
            ["query", "--store", directory, "--flow", "nonsense"],
            ["replay", "--store", directory, "--flow", "10.0.0.1:1-10.0.0.2:2/sctp"],
            ["trace", "--stream", "nonsense"],
            ["timeline", "nonsense"],
            ["record", "--store", directory, "--class-quota", "port 80=abc"],
            ["record", "--store", directory, "--class-quota", "=100"],
            ["serve", "--tcp", "127.0.0.1:abc"],
            ["serve", "--unix", str(tmp_path / "s.sock"), "--http", "127.0.0.1:abc"],
            ["top", "--tcp", "localhost:http"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
            err = capsys.readouterr().err
            assert "usage:" in err and "expected" in err, argv
