"""Positive and negative cases for every scapcheck rule."""

import textwrap

from repro.staticcheck import (
    EventTransitionRule,
    GuardedHooksRule,
    NoWallClockRule,
    Project,
    ScapApiContractRule,
    SharedStateRule,
    SourceFile,
    check,
)

HOT_PATH = "src/repro/core/example.py"
COLD_PATH = "src/repro/tools/example.py"


def run_rule(rule_cls, code, path=HOT_PATH):
    source = SourceFile(path, textwrap.dedent(code))
    return check(Project([source]), rules=[rule_cls()])


class TestSC001WallClock:
    def test_module_attribute_call_flagged(self):
        findings = run_rule(
            NoWallClockRule,
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert [f.rule_id for f in findings] == ["SC001"]
        assert "time.time()" in findings[0].message

    def test_aliased_module_flagged(self):
        findings = run_rule(
            NoWallClockRule,
            """
            import time as clock

            def stamp():
                return clock.perf_counter()
            """,
        )
        assert len(findings) == 1

    def test_from_import_flagged(self):
        findings = run_rule(
            NoWallClockRule,
            """
            from time import monotonic as mono

            def stamp():
                return mono()
            """,
        )
        assert len(findings) == 1

    def test_datetime_now_flagged(self):
        findings = run_rule(
            NoWallClockRule,
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
        )
        assert len(findings) == 1

    def test_datetime_module_chain_flagged(self):
        findings = run_rule(
            NoWallClockRule,
            """
            import datetime

            def stamp():
                return datetime.datetime.utcnow()
            """,
        )
        assert len(findings) == 1

    def test_injected_clock_clean(self):
        findings = run_rule(
            NoWallClockRule,
            """
            def advance(now: float) -> float:
                return now + 1.0
            """,
        )
        assert findings == []

    def test_sleep_not_flagged(self):
        findings = run_rule(
            NoWallClockRule,
            """
            import time

            def pause():
                time.sleep(0.1)
            """,
        )
        assert findings == []

    def test_outside_hot_path_ignored(self):
        findings = run_rule(
            NoWallClockRule,
            """
            import time

            def stamp():
                return time.time()
            """,
            path=COLD_PATH,
        )
        assert findings == []

    def test_suppression_comment(self):
        findings = run_rule(
            NoWallClockRule,
            """
            import time

            def stamp():
                return time.time()  # scapcheck: disable=SC001
            """,
        )
        assert findings == []


class TestSC002GuardedHooks:
    def test_unguarded_metric_flagged(self):
        findings = run_rule(
            GuardedHooksRule,
            """
            class Pipeline:
                def step(self):
                    self._m_packets.inc()
            """,
        )
        assert [f.rule_id for f in findings] == ["SC002"]

    def test_unguarded_batch_publish_flagged(self):
        findings = run_rule(
            GuardedHooksRule,
            """
            class Pipeline:
                def end_batch(self):
                    self._m_service.publish()
            """,
        )
        assert [f.rule_id for f in findings] == ["SC002"]

    def test_unguarded_trace_emit_flagged(self):
        findings = run_rule(
            GuardedHooksRule,
            """
            class Pipeline:
                def step(self, now):
                    self.obs.trace.emit(now, "hook")
            """,
        )
        assert len(findings) == 1

    def test_guarded_metric_clean(self):
        findings = run_rule(
            GuardedHooksRule,
            """
            class Pipeline:
                def step(self):
                    if self._obs.enabled:
                        self._m_packets.inc()
            """,
        )
        assert findings == []

    def test_early_exit_guard_clean(self):
        findings = run_rule(
            GuardedHooksRule,
            """
            class Pipeline:
                def step(self, now):
                    if not self.obs.enabled:
                        return
                    self._m_packets.inc()
                    self.obs.trace.emit(now, "hook")
            """,
        )
        assert findings == []

    def test_guard_does_not_leak_into_next_function(self):
        findings = run_rule(
            GuardedHooksRule,
            """
            class Pipeline:
                def guarded(self):
                    if self._obs.enabled:
                        self._m_packets.inc()

                def unguarded(self):
                    self._m_packets.inc()
            """,
        )
        assert len(findings) == 1
        assert findings[0].line >= 6  # the one in unguarded(), not guarded()

    def test_plain_method_calls_clean(self):
        findings = run_rule(
            GuardedHooksRule,
            """
            class Pipeline:
                def step(self, items):
                    items.set()
                    self.values.observe()
            """,
        )
        assert findings == []


class TestSC003SharedState:
    def test_shared_class_without_discipline_flagged(self):
        findings = run_rule(
            SharedStateRule,
            """
            class WorkerPool:
                def __init__(self):
                    self.jobs = []

                def push(self, job):
                    self.jobs.append(job)
            """,
        )
        assert [f.rule_id for f in findings] == ["SC003"]
        assert "WorkerPool" in findings[0].message

    def test_single_owner_annotation_clean(self):
        findings = run_rule(
            SharedStateRule,
            """
            class WorkerPool:  # scapcheck: single-owner
                def __init__(self):
                    self.jobs = []

                def push(self, job):
                    self.jobs.append(job)
            """,
        )
        assert findings == []

    def test_unlocked_mutation_in_lock_owning_class_flagged(self):
        findings = run_rule(
            SharedStateRule,
            """
            import threading

            class StreamMemory:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.used = 0

                def charge(self, n):
                    self.used += n
            """,
        )
        assert len(findings) == 1
        assert "charge" in findings[0].message

    def test_locked_mutation_clean(self):
        findings = run_rule(
            SharedStateRule,
            """
            import threading

            class StreamMemory:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.used = 0

                def charge(self, n):
                    with self._lock:
                        self.used += n
            """,
        )
        assert findings == []

    def test_single_owner_method_clean(self):
        findings = run_rule(
            SharedStateRule,
            """
            import threading

            class QueueServer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.depth = 0

                def push(self):  # scapcheck: single-owner
                    self.depth += 1
            """,
        )
        assert findings == []

    def test_unrelated_class_ignored(self):
        findings = run_rule(
            SharedStateRule,
            """
            class Counters:
                def __init__(self):
                    self.total = 0

                def bump(self):
                    self.total += 1
            """,
        )
        assert findings == []


class TestSC004EventTransitions:
    def test_data_event_without_chunk_and_reason_flagged(self):
        findings = run_rule(
            EventTransitionRule,
            """
            def emit(stream, now):
                return Event(EventType.STREAM_DATA, stream, now)
            """,
        )
        assert sorted(f.message for f in findings) == [
            "STREAM_DATA event must carry chunk=",
            "STREAM_DATA event must carry reason=",
        ]

    def test_bare_string_type_flagged(self):
        findings = run_rule(
            EventTransitionRule,
            """
            def emit(stream, now):
                return Event("data", stream, now)
            """,
        )
        assert len(findings) == 1
        assert "EventType.*" in findings[0].message

    def test_unknown_member_flagged(self):
        findings = run_rule(
            EventTransitionRule,
            """
            def emit(stream, now):
                return Event(EventType.STREAM_PAUSED, stream, now)
            """,
        )
        assert len(findings) == 1
        assert "STREAM_PAUSED" in findings[0].message

    def test_creation_event_with_chunk_flagged(self):
        findings = run_rule(
            EventTransitionRule,
            """
            def emit(stream, now, chunk):
                return Event(EventType.STREAM_CREATED, stream, now, chunk=chunk)
            """,
        )
        assert len(findings) == 1
        assert "must not carry chunk=" in findings[0].message

    def test_valid_constructions_clean(self):
        findings = run_rule(
            EventTransitionRule,
            """
            def emit(stream, now, chunk, reason):
                a = Event(EventType.STREAM_CREATED, stream, now)
                b = Event(EventType.STREAM_DATA, stream, now, chunk=chunk, reason=reason)
                c = Event(EventType.STREAM_TERMINATED, stream, now)
                return a, b, c
            """,
        )
        assert findings == []


class TestSC005ApiContract:
    def test_bare_scap_function_flagged(self):
        findings = run_rule(
            ScapApiContractRule,
            """
            def scap_example(sock, count):
                return count
            """,
            path=COLD_PATH,  # SC005 applies everywhere
        )
        messages = [f.message for f in findings]
        assert any("docstring" in m for m in messages)
        assert any("return annotation" in m for m in messages)
        assert any("'sock'" in m for m in messages)
        assert any("'count'" in m for m in messages)

    def test_compliant_scap_function_clean(self):
        findings = run_rule(
            ScapApiContractRule,
            """
            def scap_example(sock: object, count: int) -> int:
                \"\"\"Public API.\"\"\"
                return count
            """,
        )
        assert findings == []

    def test_non_scap_function_ignored(self):
        findings = run_rule(
            ScapApiContractRule,
            """
            def helper(x):
                return x
            """,
        )
        assert findings == []


class TestSuppression:
    def test_bare_disable_suppresses_everything(self):
        findings = run_rule(
            GuardedHooksRule,
            """
            class Pipeline:
                def step(self):
                    self._m_packets.inc()  # scapcheck: disable
            """,
        )
        assert findings == []

    def test_disable_of_other_rule_does_not_suppress(self):
        findings = run_rule(
            GuardedHooksRule,
            """
            class Pipeline:
                def step(self):
                    self._m_packets.inc()  # scapcheck: disable=SC001
            """,
        )
        assert len(findings) == 1

    def test_violation_format_is_path_line_col(self):
        findings = run_rule(
            GuardedHooksRule,
            """
            class Pipeline:
                def step(self):
                    self._m_packets.inc()
            """,
        )
        line = findings[0].format()
        assert line.startswith(f"{HOT_PATH}:")
        assert " SC002 " in line
