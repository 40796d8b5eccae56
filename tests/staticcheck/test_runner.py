"""The scapcheck driver: exit codes, selection, fixtures, CLI wiring."""

import os
import textwrap

import pytest

from repro.staticcheck import RULE_REGISTRY
from repro.staticcheck.runner import (
    iter_python_files,
    list_rules,
    main,
    run_paths,
)
from repro.tools.cli import main as cli_main

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")
PROJECT_FIXTURES = os.path.join(HERE, "project_fixtures")
REPO_SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src", "repro"))
ALL_RULES = ("SC001", "SC002", "SC003", "SC004", "SC005")


def write(tmp_path, name, code):
    path = tmp_path / name
    path.write_text(textwrap.dedent(code))
    return str(path)


class TestRunPaths:
    def test_seeded_fixtures_trip_every_rule(self):
        violations, errors = run_paths([FIXTURES])
        assert errors == []
        tripped = {v.rule_id for v in violations}
        assert tripped == set(ALL_RULES)
        for violation in violations:
            # Findings are anchored: path:line:col all present.
            assert violation.line > 0 and violation.col > 0
            assert "seeded_violations.py" in violation.path

    def test_select_restricts_rules(self):
        violations, _ = run_paths([FIXTURES], select=["SC001"])
        assert {v.rule_id for v in violations} == {"SC001"}

    def test_clean_file(self, tmp_path):
        path = write(
            tmp_path,
            "clean.py",
            """
            def advance(now: float) -> float:
                return now + 1.0
            """,
        )
        violations, errors = run_paths([path])
        assert violations == [] and errors == []

    def test_syntax_error_collected_not_fatal(self, tmp_path):
        bad = write(tmp_path, "broken.py", "def broken(:\n")
        good = write(tmp_path, "ok.py", "x = 1\n")
        violations, errors = run_paths([bad, good])
        assert violations == []
        assert len(errors) == 1 and "broken.py" in errors[0]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_paths(["/no/such/path"])

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            run_paths([FIXTURES], select=["SC999"])

    def test_default_run_includes_whole_program_rules(self):
        violations, errors = run_paths([PROJECT_FIXTURES])
        assert errors == []
        assert {v.rule_id for v in violations} == {"SC007"}


class TestIterPythonFiles:
    def test_skips_pycache_and_sorts(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("")
        (tmp_path / "b.py").write_text("")
        (tmp_path / "a.py").write_text("")
        (tmp_path / "notes.txt").write_text("")
        names = [os.path.basename(p) for p in iter_python_files([str(tmp_path)])]
        assert names == ["a.py", "b.py"]


class TestStandaloneMain:
    def test_exit_one_on_violations(self, capsys):
        assert main([FIXTURES]) == 1
        out = capsys.readouterr().out
        for rule_id in ALL_RULES:
            assert rule_id in out
        assert "violation(s)" in out

    def test_exit_zero_on_clean(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", "x = 1\n")
        assert main([path]) == 0
        assert "scapcheck: clean" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, capsys):
        assert main(["/no/such/path"]) == 2

    def test_exit_two_on_unknown_rule(self, capsys):
        assert main([FIXTURES, "--select", "SC999"]) == 2

    def test_exit_one_on_whole_program_findings(self, capsys):
        assert main([PROJECT_FIXTURES]) == 1
        out = capsys.readouterr().out
        assert "SC007" in out

    def test_select_whole_program_rule(self, capsys):
        assert main(["--select", "SC007", FIXTURES, PROJECT_FIXTURES]) == 1
        out = capsys.readouterr().out
        assert "SC007" in out and "SC001" not in out

    def test_list_rules_covers_registry(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_REGISTRY:
            assert rule_id in out
        lines = [line for line in list_rules().splitlines() if line.startswith("SC")]
        assert len(lines) == len(RULE_REGISTRY) == 6
        assert not any(line.endswith("]") for line in lines)


class TestCliSubcommand:
    def test_scapcheck_subcommand_flags_fixtures(self, capsys):
        assert cli_main(["scapcheck", FIXTURES]) == 1
        out = capsys.readouterr().out
        assert "SC001" in out and "seeded_violations.py" in out

    def test_scapcheck_subcommand_clean_tree(self, capsys):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
        assert cli_main(["scapcheck", os.path.normpath(src)]) == 0
        assert "scapcheck: clean" in capsys.readouterr().out

    def test_scapcheck_subcommand_select(self, capsys):
        assert cli_main(["scapcheck", FIXTURES, "--select", "SC005"]) == 1
        out = capsys.readouterr().out
        assert "SC005" in out and "SC001" not in out

    def test_scapcheck_subcommand_list_rules(self, capsys):
        assert cli_main(["scapcheck", "--list-rules"]) == 0
        assert "SC003" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["text", "json", "github"])
    def test_subcommand_matches_standalone_runner(self, fmt, capsys):
        for path in (FIXTURES, PROJECT_FIXTURES, REPO_SRC):
            code = main(["--format", fmt, path])
            standalone = capsys.readouterr().out
            assert cli_main(["scapcheck", "--format", fmt, path]) == code
            assert capsys.readouterr().out == standalone

    def test_subcommand_usage_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["scapcheck", "--format", "xml"])
        assert excinfo.value.code == 2
        assert cli_main(["scapcheck", "--select", "SC999", FIXTURES]) == 2
        assert "unknown rule SC999" in capsys.readouterr().err
