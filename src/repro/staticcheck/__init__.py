"""``scapcheck``: repo-specific static analysis.

Ordinary linters check Python; this package checks *Scap*.  The rules
encode invariants the reproduction's correctness rests on — simulated
time only (SC001), zero-cost disabled observability (SC002), declared
concurrency discipline for shared state (SC003), well-formed stream
events (SC004), a fully documented/typed public API (SC005), and one
lockset per attribute (SC007).  All six run over one
:class:`~repro.staticcheck.project.Project` per run.

Run it as ``python -m repro.staticcheck src/repro`` or
``repro-scap scapcheck src/repro``; suppress a finding inline with
``# scapcheck: disable=SC00x``.  The rule catalogue lives in
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from .framework import (
    RULE_REGISTRY,
    Rule,
    SourceFile,
    Violation,
    check,
    register_rule,
)
from .project import Project
from .rules import (
    HOT_PATH_PACKAGES,
    EventTransitionRule,
    GuardedHooksRule,
    NoWallClockRule,
    ScapApiContractRule,
    SharedStateRule,
)
from .runner import iter_python_files, list_rules, main, run_paths

__all__ = [
    "RULE_REGISTRY",
    "Rule",
    "SourceFile",
    "Violation",
    "check",
    "Project",
    "register_rule",
    "HOT_PATH_PACKAGES",
    "NoWallClockRule",
    "GuardedHooksRule",
    "SharedStateRule",
    "EventTransitionRule",
    "ScapApiContractRule",
    "iter_python_files",
    "list_rules",
    "main",
    "run_paths",
]
