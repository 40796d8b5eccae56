"""Project-mode rule SC007, formats, dedupe, file suppression; thread pin."""

from __future__ import annotations

import ast
import json
import os
import textwrap

import pytest

from repro.staticcheck.runner import (
    iter_python_files,
    main,
    render_report,
    rule_counts,
    run_paths,
)
from repro.tools.cli import main as cli_main

HERE = os.path.dirname(__file__)
PROJECT_FIXTURES = os.path.join(HERE, "project_fixtures")
REPO_SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src", "repro"))


def fixture(name: str) -> str:
    return os.path.join(PROJECT_FIXTURES, name)


def write(tmp_path, name, code):
    path = tmp_path / name
    path.write_text(textwrap.dedent(code))
    return str(path)


class TestSeededProjectFixtures:
    @pytest.mark.parametrize(
        "rule_id,name",
        [
            ("SC007", "sc007_lockset.py"),
        ],
    )
    def test_each_fixture_trips_its_rule(self, rule_id, name):
        violations, errors = run_paths(
            [fixture(name)], select=[rule_id])
        assert errors == []
        assert {v.rule_id for v in violations} == {rule_id}
        assert all(v.line > 0 and v.col > 0 for v in violations)

    @pytest.mark.parametrize(
        "rule_id,name",
        [
            ("SC007", "sc007_lockset.py"),
        ],
    )
    def test_each_fixture_exits_1_from_the_cli(self, rule_id, name, capsys):
        assert (
            cli_main(["scapcheck", "--select", rule_id, fixture(name)])
            == 1
        )
        assert rule_id in capsys.readouterr().out

    def test_repo_is_clean_under_project_mode(self):
        violations, errors = run_paths([REPO_SRC])
        assert errors == []
        assert [v for v in violations if v.rule_id == "SC007"] == []

    def test_project_analysis_is_not_vacuous_on_the_repo(self):
        # The exact set of threads src/ starts.  A new thread is new
        # concurrency: it fails here so a reviewer looks at it, and
        # SCAP_RACE's owner tokens decide whether it may touch shared
        # state.
        sites = []
        for path in iter_python_files([REPO_SRC]):
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            sites.extend(
                os.path.relpath(path, REPO_SRC)
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "Thread"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "threading"
            )
        assert sorted(sites) == [
            os.path.join("service", name)
            for name in ("client.py", "daemon.py", "owner.py")
        ]


class TestProjectRuleBehavior:
    def test_sc007_ignores_init_and_single_owner_methods(self, tmp_path):
        path = write(
            tmp_path,
            "disciplined.py",
            """
            import threading


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def reset(self):  # scapcheck: single-owner
                    self.count = 0
            """,
        )
        violations, _ = run_paths([path], select=["SC007"])
        assert violations == []

    def test_selecting_project_rule_needs_no_flag(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "mixed.py",
            """
            import threading


            def scap_undocumented(x):
                return x


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def reset(self):
                    self.count = 0
            """,
        )
        violations, _ = run_paths([path])
        assert {v.rule_id for v in violations} == {"SC005", "SC007"}
        assert main(["--select", "SC007", path]) == 1
        out = capsys.readouterr().out
        assert "SC007" in out and "SC005" not in out


class TestIterPythonFilesDedupe:
    def test_overlapping_directories_yield_each_file_once(self, tmp_path):
        sub = tmp_path / "core"
        sub.mkdir()
        (tmp_path / "a.py").write_text("x = 1\n")
        (sub / "b.py").write_text("y = 2\n")
        files = list(iter_python_files([str(tmp_path), str(sub)]))
        assert len(files) == len(set(map(os.path.realpath, files))) == 2

    def test_repeated_file_and_containing_dir_yield_once(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        files = list(
            iter_python_files([str(target), str(target), str(tmp_path)])
        )
        assert len(files) == 1

    def test_overlapping_paths_do_not_double_report(self, tmp_path):
        path = write(
            tmp_path,
            "core_bad.py",
            """
            import threading


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def reset(self):
                    self.count = 0
            """,
        )
        once, _ = run_paths([path], select=["SC007"])
        twice, _ = run_paths(
            [str(tmp_path), path], select=["SC007"])
        assert len(once) == len(twice) == 1


class TestFormats:
    def _violations(self):
        violations, errors = run_paths(
            [fixture("sc007_lockset.py")], select=["SC007"])
        assert errors == []
        return violations

    def test_json_format_carries_counts_and_anchors(self):
        out, err = render_report(self._violations(), [], fmt="json")
        assert err == ""
        document = json.loads(out)
        assert document["counts"] == {"SC007": 1}
        record = document["violations"][0]
        assert record["rule"] == "SC007"
        assert record["path"].endswith("sc007_lockset.py")
        assert record["line"] > 0 and record["col"] > 0

    def test_github_format_emits_workflow_annotations(self):
        out, _ = render_report(self._violations(), [], fmt="github")
        first = out.splitlines()[0]
        assert first.startswith("::error file=")
        assert ",line=" in first and ",col=" in first
        assert "::SC007 " in first

    def test_text_summary_carries_per_rule_counts(self):
        out, _ = render_report(self._violations(), [], fmt="text")
        assert "violation(s) (SC007=1)" in out

    def test_clean_json_run_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", "x = 1\n")
        assert main(["--format", "json", path]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["violations"] == [] and document["counts"] == {}

    def test_rule_counts_helper_sorts_ids(self):
        violations = self._violations() * 2
        assert list(rule_counts(violations)) == ["SC007"]
        assert rule_counts(violations)["SC007"] == 2


class TestFileLevelSuppression:
    def test_disable_file_suppresses_named_rule(self, tmp_path):
        path = write(
            tmp_path,
            "suppressed.py",
            """
            # scapcheck: disable-file=SC007
            import threading


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def reset(self):
                    self.count = 0
            """,
        )
        violations, _ = run_paths([path], select=["SC007"])
        assert violations == []

    def test_disable_file_outside_first_five_lines_is_inert(self, tmp_path):
        path = write(
            tmp_path,
            "late.py",
            """
            import threading
            # padding line
            # padding line
            # padding line
            # padding line
            # scapcheck: disable-file=SC007


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def reset(self):
                    self.count = 0
            """,
        )
        violations, _ = run_paths([path], select=["SC007"])
        assert len(violations) == 1

    def test_bare_disable_file_suppresses_everything(self, tmp_path):
        path = write(
            tmp_path,
            "all_off.py",
            """
            # scapcheck: disable-file
            import time


            def scap_undocumented(x):
                return time.time()
            """,
        )
        violations, _ = run_paths([path])
        assert violations == []
