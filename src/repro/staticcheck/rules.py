"""The repo-specific scapcheck rules (SC001–SC005, SC007).

Each rule encodes one invariant of this codebase that ordinary linters
cannot express (see ``docs/STATIC_ANALYSIS.md`` for the catalogue and
the rationale behind each):

* SC001 — simulated-time code must never read the wall clock.
* SC002 — observability hook calls must sit behind the disabled fast
  path (``if <obs>.enabled:``), so monitoring is free when off.
* SC003 — shared worker/queue state must declare its concurrency
  discipline: lock-protected mutation or an explicit single-owner
  annotation.
* SC004 — every :class:`~repro.core.events.Event` construction must
  name a valid stream-state transition with the fields it requires.
* SC005 — public ``scap_*`` API functions need docstrings and full
  type hints.
* SC007 — an attribute locked in one method must be locked in all.

Each rule looks at one file (or one class) at a time; SC003 and SC007
share the :class:`~repro.staticcheck.project.Project` lockset walk.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .framework import Rule, SourceFile, Violation, register_rule
from .project import ClassModel, Project, _dotted_chain

__all__ = [
    "NoWallClockRule",
    "GuardedHooksRule",
    "SharedStateRule",
    "EventTransitionRule",
    "ScapApiContractRule",
    "LocksetConsistencyRule",
    "HOT_PATH_PACKAGES",
]

#: Packages that run in simulated time on the capture hot path.
HOT_PATH_PACKAGES = frozenset(
    {
        "repro/core",
        "repro/nic",
        "repro/kernelsim",
        "repro/netstack",
        "repro/store",
        "repro/faultinject",
    }
)


# ----------------------------------------------------------------------
# SC001 — no wall clock in simulated-time code
# ----------------------------------------------------------------------
_WALL_CLOCK_ATTRS: Dict[str, Set[str]] = {
    "time": {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
    },
    "datetime": {"now", "utcnow", "today"},  # the datetime class
    "date": {"today"},
}


@register_rule
class NoWallClockRule(Rule):
    """SC001: hot-path code must use the injected simulated clock."""

    rule_id = "SC001"
    description = (
        "no wall-clock reads (time.time, datetime.now, time.monotonic, ...) "
        "in simulated-time packages; use the injected clock"
    )
    packages = HOT_PATH_PACKAGES

    def check_file(self, source: SourceFile) -> List[Violation]:
        module_aliases: Dict[str, str] = {}  # local name -> "time" | "datetime" module
        class_aliases: Dict[str, str] = {}  # local name -> "datetime" | "date" class
        direct_calls: Dict[str, Tuple[str, str]] = {}  # local name -> (base, attr)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("time", "datetime"):
                        module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_ATTRS["time"]:
                            direct_calls[alias.asname or alias.name] = ("time", alias.name)
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            class_aliases[alias.asname or alias.name] = alias.name

        findings: List[Violation] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = self._resolve(node.func, module_aliases, class_aliases, direct_calls)
            if resolved is None:
                continue
            base, attr = resolved
            if attr == "monotonic" and (node.args or node.keywords):
                continue  # only the argless form reads the wall clock here
            findings.append(
                self.violation(
                    source,
                    node,
                    f"wall-clock read {base}.{attr}() in simulated-time code; "
                    "take `now` from the injected clock instead",
                )
            )
        return findings

    def _resolve(
        self,
        func: ast.AST,
        module_aliases: Dict[str, str],
        class_aliases: Dict[str, str],
        direct_calls: Dict[str, Tuple[str, str]],
    ) -> Optional[Tuple[str, str]]:
        if isinstance(func, ast.Name):
            return direct_calls.get(func.id)
        chain = _dotted_chain(func)
        if len(chain) < 2:
            return None
        attr = chain[-1]
        base = chain[-2]
        if len(chain) == 2:
            # time.time() / dt.now() — base is a module alias or a class alias.
            module = module_aliases.get(base)
            if module == "time" and attr in _WALL_CLOCK_ATTRS["time"]:
                return ("time", attr)
            if module == "datetime" and attr in _WALL_CLOCK_ATTRS["datetime"]:
                # datetime-module functions don't exist; "datetime.now" only
                # resolves when `import datetime` shadows the class use —
                # still a wall-clock read, still flagged.
                return ("datetime", attr)
            cls = class_aliases.get(base)
            if cls is not None and attr in _WALL_CLOCK_ATTRS.get(cls, set()):
                return (cls, attr)
            return None
        # datetime.datetime.now() / dt.date.today() — chain[-3] is the module.
        module = module_aliases.get(chain[-3])
        if module == "datetime" and base in ("datetime", "date"):
            if attr in _WALL_CLOCK_ATTRS.get(base, set()):
                return (base, attr)
        return None


# ----------------------------------------------------------------------
# SC002 — observability hooks must be guarded by the disabled fast path
# ----------------------------------------------------------------------
_HOOK_METHODS = {"inc", "observe", "set", "publish"}


def _receiver_is_metric(expr: ast.AST) -> bool:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Attribute) and (
            sub.attr.startswith("_m_") or sub.attr == "_core"
        ):
            return True
        if isinstance(sub, ast.Name) and sub.id.startswith("_m_"):
            return True
    return False


def _receiver_is_trace(expr: ast.AST) -> bool:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Attribute) and sub.attr == "trace":
            return True
        if isinstance(sub, ast.Name) and sub.id == "trace":
            return True
    return False


def _is_hook_call(node: ast.Call) -> bool:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in _HOOK_METHODS:
        return _receiver_is_metric(func.value)
    if func.attr == "emit":
        return _receiver_is_trace(func.value)
    return False


def _mentions_enabled(test: ast.AST) -> bool:
    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
            return True
        if isinstance(sub, ast.Name) and sub.id == "enabled":
            return True
    return False


def _is_not_enabled(test: ast.AST) -> bool:
    return (
        isinstance(test, ast.UnaryOp)
        and isinstance(test.op, ast.Not)
        and _mentions_enabled(test.operand)
    )


def _suite_exits(body: List[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


@register_rule
class GuardedHooksRule(Rule):
    """SC002: metric/trace emission must branch on ``.enabled`` first."""

    rule_id = "SC002"
    description = (
        "observability hook calls (metric .inc/.observe/.set/.publish, trace .emit) "
        "must be inside an `if <obs>.enabled:` fast-path guard"
    )
    # Beyond the simulated hot path, the service layer and the span /
    # telemetry recorders emit into the same registry and trace ring, so
    # their call sites carry the same guarded-fast-path contract.  (SC001
    # stays scoped to HOT_PATH_PACKAGES: the daemon legitimately reads
    # the wall clock.)
    packages = HOT_PATH_PACKAGES | frozenset(
        {"repro/service", "repro/observability/spans",
         "repro/observability/telemetry"}
    )

    def check_file(self, source: SourceFile) -> List[Violation]:
        self._findings: List[Violation] = []
        self._source = source
        self._suite(source.tree.body, guarded=False)
        return self._findings

    # Statement-list walker carrying the "are we behind an enabled
    # guard" flag; an `if not X.enabled: return` early exit guards the
    # remainder of the suite.
    def _suite(self, stmts: List[ast.stmt], guarded: bool) -> None:
        for stmt in stmts:
            guarded = self._statement(stmt, guarded)

    def _statement(self, stmt: ast.stmt, guarded: bool) -> bool:
        if isinstance(stmt, ast.If):
            positive = _mentions_enabled(stmt.test) and not _is_not_enabled(stmt.test)
            negative = _is_not_enabled(stmt.test)
            self._scan(stmt.test, guarded)
            self._suite(stmt.body, guarded or positive)
            self._suite(stmt.orelse, guarded or negative)
            if negative and _suite_exits(stmt.body):
                return True
            return guarded
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self._suite(stmt.body, False)
            return guarded
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan(stmt.iter, guarded)
            self._suite(stmt.body, guarded)
            self._suite(stmt.orelse, guarded)
            return guarded
        if isinstance(stmt, ast.While):
            self._scan(stmt.test, guarded)
            self._suite(stmt.body, guarded)
            self._suite(stmt.orelse, guarded)
            return guarded
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan(item.context_expr, guarded)
            self._suite(stmt.body, guarded)
            return guarded
        if isinstance(stmt, ast.Try):
            self._suite(stmt.body, guarded)
            for handler in stmt.handlers:
                self._suite(handler.body, guarded)
            self._suite(stmt.orelse, guarded)
            self._suite(stmt.finalbody, guarded)
            return guarded
        self._scan(stmt, guarded)
        return guarded

    def _scan(self, node: ast.AST, guarded: bool) -> None:
        if guarded:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and _is_hook_call(sub):
                self._findings.append(
                    self.violation(
                        self._source,
                        sub,
                        "observability hook call outside an `if <obs>.enabled:` "
                        "guard; the disabled fast path must cost one boolean",
                    )
                )


# ----------------------------------------------------------------------
# SC003 — shared worker/queue state needs a declared discipline
# ----------------------------------------------------------------------
#: Classes whose instances are reachable from more than one logical
#: execution context (kernel cores and worker threads in the real
#: system); they must either lock their mutations or declare that a
#: single owner drives them.
_SHARED_CLASS_NAMES = frozenset(
    {"WorkerPool", "QueueServer", "StreamMemory", "FlowDirectorTable", "FlowTable"}
)


@register_rule
class SharedStateRule(Rule):
    """SC003: lightweight race detector for shared pool/queue classes."""

    rule_id = "SC003"
    description = (
        "shared WorkerPool/queue state must be mutated under a lock or in a "
        "class/method annotated `# scapcheck: single-owner`"
    )
    packages = HOT_PATH_PACKAGES

    def check(self, project: Project) -> List[Violation]:
        findings: List[Violation] = []
        for source in self.files(project):
            for cls in project.classes_in(source):
                findings.extend(self._check_class(cls))
        return findings

    def _check_class(self, cls: ClassModel) -> List[Violation]:
        shared = cls.name in _SHARED_CLASS_NAMES or bool(cls.lock_attrs)
        if not shared or cls.single_owner:
            return []  # single-owner: discipline declared, no locking needed
        if not cls.lock_attrs:
            return [
                self.violation(
                    cls.source,
                    cls.node,
                    f"shared class {cls.name} declares no concurrency discipline: "
                    "add a lock around mutations or annotate the class "
                    "`# scapcheck: single-owner`",
                )
            ]
        findings: List[Violation] = []
        for item in cls.node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__" or cls.source.single_owner(item.lineno):
                continue
            for node, _, locked in cls.locked_mutations(item.body):
                if not locked:
                    findings.append(
                        self.violation(
                            cls.source,
                            node,
                            f"{cls.name}.{item.name} mutates shared state "
                            "outside `with self.<lock>:`; lock it or annotate "
                            "the method `# scapcheck: single-owner`",
                        )
                    )
        return findings


# ----------------------------------------------------------------------
# SC004 — Event constructions must carry a valid stream transition
# ----------------------------------------------------------------------
_EVENT_TYPES = frozenset({"STREAM_CREATED", "STREAM_DATA", "STREAM_TERMINATED"})


@register_rule
class EventTransitionRule(Rule):
    """SC004: ``Event(...)`` must name an ``EventType`` member correctly."""

    rule_id = "SC004"
    description = (
        "Event() must be constructed with an EventType.* member; STREAM_DATA "
        "events must carry chunk= and reason=, others must not carry chunk="
    )
    packages = HOT_PATH_PACKAGES

    def check_file(self, source: SourceFile) -> List[Violation]:
        findings: List[Violation] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name != "Event":
                continue
            findings.extend(self._check_event(source, node))
        return findings

    def _check_event(self, source: SourceFile, node: ast.Call) -> List[Violation]:
        event_type: Optional[ast.AST] = node.args[0] if node.args else None
        keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg is not None}
        if event_type is None:
            event_type = keywords.get("event_type")
        if event_type is None:
            return [
                self.violation(source, node, "Event() constructed without an event type")
            ]
        if not (
            isinstance(event_type, ast.Attribute)
            and isinstance(event_type.value, ast.Name)
            and event_type.value.id == "EventType"
        ):
            return [
                self.violation(
                    source,
                    node,
                    "Event() type must be an EventType.* member, not an arbitrary "
                    "expression or bare string",
                )
            ]
        member = event_type.attr
        if member not in _EVENT_TYPES:
            return [
                self.violation(
                    source, node, f"EventType.{member} is not a stream-state transition"
                )
            ]
        findings: List[Violation] = []
        if member == "STREAM_DATA":
            for required in ("chunk", "reason"):
                if required not in keywords:
                    findings.append(
                        self.violation(
                            source,
                            node,
                            f"STREAM_DATA event must carry {required}=",
                        )
                    )
        elif "chunk" in keywords:
            findings.append(
                self.violation(
                    source,
                    node,
                    f"{member} event must not carry chunk= (data travels only on "
                    "STREAM_DATA)",
                )
            )
        return findings


# ----------------------------------------------------------------------
# SC005 — scap_* API contract: docstrings + type hints
# ----------------------------------------------------------------------
@register_rule
class ScapApiContractRule(Rule):
    """SC005: public ``scap_*`` functions are the paper-facing API."""

    rule_id = "SC005"
    description = "scap_* functions must have a docstring and complete type hints"
    # Applies to the whole tree: the API surface is not hot-path-only.

    def check_file(self, source: SourceFile) -> List[Violation]:
        findings: List[Violation] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("scap_"):
                continue
            if ast.get_docstring(node) is None:
                findings.append(
                    self.violation(
                        source, node, f"{node.name} has no docstring (public API)"
                    )
                )
            if node.returns is None:
                findings.append(
                    self.violation(
                        source, node, f"{node.name} is missing a return annotation"
                    )
                )
            args = node.args
            positional = list(args.posonlyargs) + list(args.args)
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            for arg in positional + list(args.kwonlyargs):
                if arg.annotation is None:
                    findings.append(
                        self.violation(
                            source,
                            node,
                            f"{node.name} parameter {arg.arg!r} is missing a type hint",
                        )
                    )
            for vararg in (args.vararg, args.kwarg):
                if vararg is not None and vararg.annotation is None:
                    findings.append(
                        self.violation(
                            source,
                            node,
                            f"{node.name} parameter {vararg.arg!r} is missing a "
                            "type hint",
                        )
                    )
        return findings


def _first_per_line(findings: List[Violation]) -> List[Violation]:
    """The first finding, in column order, on each source line.

    One statement can write several locked attributes; SC007 reports
    the site once.
    """
    kept: Dict[Tuple[str, int], Violation] = {}
    for finding in sorted(findings, key=lambda v: (v.path, v.line, v.col)):
        kept.setdefault((finding.path, finding.line), finding)
    return list(kept.values())


# ----------------------------------------------------------------------
# SC007 — lockset consistency inside a class
# ----------------------------------------------------------------------
@register_rule
class LocksetConsistencyRule(Rule):
    """SC007: an attribute locked in one method must be locked in all.

    Classic Eraser-style lockset discipline at class granularity: if
    ``self.x`` is only ever mutated under ``with self._lock:`` in some
    method, a bare mutation of ``self.x`` in a *different* method of the
    same class is a candidate race.  ``__init__`` (runs before the
    object is shared) and methods annotated ``# scapcheck:
    single-owner`` are exempt.
    """

    rule_id = "SC007"
    description = (
        "attribute mutated under `with self.<lock>:` in one method but "
        "bare in another method of the same class"
    )

    def check(self, project: Project) -> List[Violation]:
        """Check every class's lockset discipline method by method."""
        findings: List[Violation] = []
        for models in project.classes.values():
            for cls in models:
                findings.extend(self._check_class(cls))
        return _first_per_line(findings)

    def _check_class(self, cls: ClassModel) -> List[Violation]:
        if not cls.lock_attrs or cls.single_owner:
            return []
        locked_by_method: Dict[str, Set[str]] = {}
        bare_sites: List[Tuple[str, str, ast.AST]] = []  # (method, attr, node)
        for name, method in cls.methods.items():
            if name == "__init__" or cls.source.single_owner(method.lineno):
                continue
            for node, attrs, locked in cls.locked_mutations(method.body):
                for attr in attrs:
                    if attr in cls.lock_attrs:
                        continue  # assigning the lock itself
                    if locked:
                        locked_by_method.setdefault(attr, set()).add(name)
                    else:
                        bare_sites.append((name, attr, node))
        findings: List[Violation] = []
        for method_name, attr, node in bare_sites:
            locked_in = locked_by_method.get(attr, set()) - {method_name}
            if not locked_in:
                continue
            others = ", ".join(sorted(locked_in))
            findings.append(
                self.violation(
                    cls.source,
                    node,
                    f"{cls.name}.{method_name} mutates self.{attr} without a "
                    f"lock, but {cls.name}.{others} mutates it under "
                    "`with self.<lock>:`; lock this site too or annotate the "
                    "method `# scapcheck: single-owner`",
                )
            )
        return findings
