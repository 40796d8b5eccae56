"""The scapcheck driver: walk files, run rules, report.

Entry points:

* ``python -m repro.staticcheck [paths...]`` — standalone runner;
* ``repro-scap scapcheck [paths...]`` — the CLI subcommand (same code);
* :func:`run_paths` — the programmatic API the tests use.

Every run parses the files into one
:class:`~repro.staticcheck.project.Project` and runs all six rules
(SC001–SC005, SC007) over it.  ``--format`` selects ``text`` (default),
``json`` (one document with violations, errors, and per-rule counts),
or ``github`` (workflow ``::error`` annotations, so CI failures mark PR
lines).

Exit status is 0 when clean, 1 when any violation is reported, 2 on
usage errors (unreadable path, unknown rule id).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .framework import RULE_REGISTRY, Rule, SourceFile, Violation, check
from . import rules as _rules  # noqa: F401  (importing registers the rules)
from .project import Project

__all__ = [
    "iter_python_files",
    "run_paths",
    "build_parser",
    "main",
    "rule_counts",
    "render_report",
    "FORMATS",
]

FORMATS = ("text", "json", "github")


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    """Yield every ``.py`` file under ``paths``, each exactly once.

    Overlapping arguments (``src/repro src/repro/core``) and repeated
    files are deduplicated on the real path, so a violation is never
    double-reported; the first spelling of a path wins.
    """
    seen: set = set()
    for path in paths:
        if os.path.isfile(path):
            real = os.path.realpath(path)
            if real not in seen:
                seen.add(real)
                yield path
        elif os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    name for name in dirnames if name != "__pycache__"
                )
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    candidate = os.path.join(root, filename)
                    real = os.path.realpath(candidate)
                    if real not in seen:
                        seen.add(real)
                        yield candidate
        else:
            raise FileNotFoundError(path)


def _select_rules(select: Optional[Sequence[str]]) -> List[Rule]:
    """Instances of the selected rules (all registered when ``select`` is empty)."""
    if not select:
        return [cls() for cls in RULE_REGISTRY.values()]
    rules = []
    for rule_id in select:
        normalized = rule_id.strip().upper()
        if normalized not in RULE_REGISTRY:
            raise KeyError(normalized)
        rules.append(RULE_REGISTRY[normalized]())
    return rules


def run_paths(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> Tuple[List[Violation], List[str]]:
    """Check every Python file under ``paths``.

    Returns ``(violations, errors)`` where ``errors`` are files that
    could not be parsed (syntax errors are reported, not fatal — a
    linter must survive broken input).  The parseable files form one
    :class:`Project`, which every rule reads.
    """
    rules = _select_rules(select)
    errors: List[str] = []
    sources: List[SourceFile] = []
    for filename in iter_python_files(paths):
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                text = handle.read()
            sources.append(SourceFile(filename, text))
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{filename}: {exc}")
    return check(Project(sources), rules), errors


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the standalone ``python -m repro.staticcheck``."""
    parser = argparse.ArgumentParser(
        prog="scapcheck",
        description="repo-specific static analysis for the Scap reproduction",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="SC00x",
        help="run only these rule ids (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        dest="fmt",
        help="output format: text (default), json, or github annotations",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def list_rules() -> str:
    """The rule catalogue, one ``SC00x  description`` line per rule."""
    return "\n".join(
        f"{rule_id}  {RULE_REGISTRY[rule_id].description}"
        for rule_id in sorted(RULE_REGISTRY)
    )


def rule_counts(violations: Sequence[Violation]) -> Dict[str, int]:
    """Findings per rule id, sorted by id."""
    counts: Dict[str, int] = {}
    for violation in violations:
        counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
    return dict(sorted(counts.items()))


def _summary_line(violations: Sequence[Violation]) -> str:
    counts = rule_counts(violations)
    per_rule = ", ".join(f"{rule_id}={n}" for rule_id, n in counts.items())
    return f"scapcheck: {len(violations)} violation(s) ({per_rule})"


def render_report(
    violations: Sequence[Violation], errors: Sequence[str], fmt: str = "text"
) -> Tuple[str, str]:
    """(stdout text, stderr text) for one run in the chosen format."""
    if fmt == "json":
        document = {
            "violations": [
                {
                    "rule": v.rule_id,
                    "path": v.path,
                    "line": v.line,
                    "col": v.col,
                    "message": v.message,
                }
                for v in violations
            ],
            "errors": list(errors),
            "counts": rule_counts(violations),
        }
        return json.dumps(document, indent=2), ""
    out_lines: List[str] = []
    if fmt == "github":
        for v in violations:
            # Workflow command: annotates the PR line in the Files tab.
            out_lines.append(
                f"::error file={v.path},line={v.line},col={v.col},"
                f"title={v.rule_id}::{v.rule_id} {v.message}"
            )
    else:
        out_lines.extend(v.format() for v in violations)
    if violations:
        out_lines.append(_summary_line(violations))
    elif not errors:
        out_lines.append("scapcheck: clean")
    err_lines = [f"error: {error}" for error in errors]
    return "\n".join(out_lines), "\n".join(err_lines)


def report(
    violations: Sequence[Violation],
    errors: Sequence[str],
    fmt: str = "text",
) -> int:
    """Print findings to stdout/stderr; return the process exit code."""
    out, err = render_report(violations, errors, fmt)
    if out:
        print(out)
    if err:
        print(err, file=sys.stderr)
    if violations:
        return 1
    if errors:
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point; returns the exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    try:
        violations, errors = run_paths(args.paths, select=args.select)
    except FileNotFoundError as exc:
        print(f"scapcheck: no such path: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"scapcheck: unknown rule {exc.args[0]}", file=sys.stderr)
        return 2
    return report(violations, errors, fmt=args.fmt)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
