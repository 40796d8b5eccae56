"""The ``scapcheck`` rule framework.

A :class:`Rule` inspects one :class:`~repro.staticcheck.project.Project`
(every parsed file of a run) and reports :class:`Violation` records.
The framework supplies what every rule needs — the AST, the raw source
lines (for comment-based directives), path scoping, and inline
suppressions — so each rule in :mod:`~repro.staticcheck.rules` is just
the check itself.

Directives (written as comments, checked against the raw line text):

* ``# scapcheck: disable=SC001`` — suppress the named rule(s) on this
  line; several ids may be comma-separated, and a bare
  ``# scapcheck: disable`` suppresses every rule on the line.
* ``# scapcheck: disable-file=SC001`` — within the first five lines of
  a file, suppress the named rule(s) for the whole file (fixture files
  full of deliberate violations stay readable this way); a bare
  ``disable-file`` suppresses every rule in the file.
* ``# scapcheck: single-owner`` — on a ``class`` or ``def`` line,
  declares that the object is only ever touched by a single thread
  (the simulation loop), which satisfies rule SC003's shared-state
  discipline without a lock.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Type

if TYPE_CHECKING:
    from .project import Project

__all__ = [
    "Violation",
    "SourceFile",
    "Rule",
    "RULE_REGISTRY",
    "register_rule",
    "check",
    "FILE_DIRECTIVE_LINES",
]

_DISABLE_RE = re.compile(r"#\s*scapcheck:\s*disable(?!-file)(?:=([A-Za-z0-9_, ]+))?")
_DISABLE_FILE_RE = re.compile(r"#\s*scapcheck:\s*disable-file(?:=([A-Za-z0-9_, ]+))?")
_SINGLE_OWNER_RE = re.compile(r"#\s*scapcheck:\s*single-owner")

#: How many leading lines a ``disable-file`` directive may appear on.
FILE_DIRECTIVE_LINES = 5


@dataclass(frozen=True)
class Violation:
    """One rule finding, anchored to a file position."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """``path:line:col: SC00x message`` — the CLI output line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


class SourceFile:
    """One parsed source file plus its raw lines for directive lookup."""

    def __init__(self, path: str, text: str):
        self.path = path.replace("\\", "/")
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        # File-level suppressions: a `# scapcheck: disable-file=...`
        # directive in the first FILE_DIRECTIVE_LINES lines.  None means
        # a bare disable-file (everything suppressed).
        self.file_disabled: Optional[FrozenSet[str]] = frozenset()
        for raw in self.lines[:FILE_DIRECTIVE_LINES]:
            match = _DISABLE_FILE_RE.search(raw)
            if match is None:
                continue
            listed = match.group(1)
            if listed is None:
                self.file_disabled = None
                break
            ids = {item.strip().upper() for item in listed.split(",") if item.strip()}
            self.file_disabled = frozenset(set(self.file_disabled or ()) | ids)

    def line_text(self, line: int) -> str:
        """The raw text of 1-indexed ``line`` ("" when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def file_suppressed(self, rule_id: str) -> bool:
        """True if a leading disable-file directive covers ``rule_id``."""
        if self.file_disabled is None:
            return True
        return rule_id.upper() in self.file_disabled

    def suppressed(self, line: int, rule_id: str) -> bool:
        """True if ``line`` (or the file header) suppresses ``rule_id``."""
        if self.file_suppressed(rule_id):
            return True
        match = _DISABLE_RE.search(self.line_text(line))
        if match is None:
            return False
        listed = match.group(1)
        if listed is None:
            return True  # bare "disable": everything on this line
        ids = {item.strip().upper() for item in listed.split(",") if item.strip()}
        return rule_id.upper() in ids

    def single_owner(self, line: int) -> bool:
        """True if ``line`` (a class/def line) is annotated single-owner."""
        return _SINGLE_OWNER_RE.search(self.line_text(line)) is not None


class Rule:
    """Base class for scapcheck rules.

    Subclasses set ``rule_id``/``description`` and optionally narrow
    ``packages`` (path substrings such as ``repro/core``; empty means
    the whole tree).  A rule that looks at one file at a time
    implements :meth:`check_file`; a rule that reasons across files
    overrides :meth:`check`.
    """

    rule_id: str = ""
    description: str = ""
    #: Path fragments the rule is restricted to (empty = everywhere).
    packages: FrozenSet[str] = frozenset()

    def applies_to(self, path: str) -> bool:
        """Whether this rule inspects the file at ``path`` at all."""
        if not self.packages:
            return True
        normalized = path.replace("\\", "/")
        return any(fragment in normalized for fragment in self.packages)

    def files(self, project: Project) -> List[SourceFile]:
        """The project's files inside this rule's ``packages`` scope."""
        return [source for source in project.sources if self.applies_to(source.path)]

    def check(self, project: Project) -> List[Violation]:
        """Inspect the project; return all findings (before suppression)."""
        return [
            finding
            for source in self.files(project)
            for finding in self.check_file(source)
        ]

    def check_file(self, source: SourceFile) -> List[Violation]:
        """Inspect one file; return all findings (before suppression)."""
        raise NotImplementedError

    def violation(self, source: SourceFile, node: ast.AST, message: str) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            rule_id=self.rule_id,
            path=source.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


#: rule_id -> rule class, filled by the @register_rule decorator.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if not cls.rule_id:
        raise ValueError("rule class must set rule_id")
    RULE_REGISTRY[cls.rule_id] = cls
    return cls


def check(project: Project, rules: Optional[Sequence[Rule]] = None) -> List[Violation]:
    """Run ``rules`` (default: all registered) over ``project``.

    Inline and file-level ``# scapcheck: disable`` suppressions are
    applied here, against the file each finding is anchored in, so
    rules themselves never need to know about them.
    """
    if rules is None:
        rules = [cls() for cls in RULE_REGISTRY.values()]
    by_path = {source.path: source for source in project.sources}
    findings = [
        finding
        for rule in rules
        for finding in rule.check(project)
        if not by_path[finding.path].suppressed(finding.line, finding.rule_id)
    ]
    findings.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return findings
